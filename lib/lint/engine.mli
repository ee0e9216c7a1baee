(** Source discovery and whole-tree linting. *)

val lint_string : path:string -> string -> Finding.t list
(** Lint source text as if it lived at [path] (which selects the
    allowlists). Used by the test fixtures. Interface-presence (L002)
    is a file-set property and is not checked here. *)

val lint_tree : root:string -> Finding.t list
(** Lint every scanned [.ml] plus the file-set checks, sorted. *)
