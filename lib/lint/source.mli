(** Source loading and parsing for the linter (compiler-libs parser, no
    ppx), plus waiver-comment extraction.

    A comment containing [LINT: waive <RULE-ID> ... <reason>] on the
    same line as a finding or the line directly above suppresses those
    rule ids at that site. *)

type t = {
  path : string;  (** Repo-relative path with [/] separators. *)
  text : string;
  structure : Parsetree.structure option;  (** [None] when parsing failed. *)
  parse_error : (int * int * string) option;  (** line, col, message. *)
  waivers : (int * string list) list;  (** line -> waived rule ids. *)
}

val parse : path:string -> string -> t
(** Parse source text; never raises (parse failures are recorded in
    [parse_error]). *)

val load : root:string -> string -> t
(** [load ~root rel] reads and parses [root/rel]. *)

val waived : t -> rule_id:string -> line:int -> bool
(** Is this rule waived at this line (same-line or line-above
    comment)? *)
