(** Cell naming and row encoding for the sweep journal.

    A cell's address is the MD5 of (code fingerprint, experiment id,
    scope, cell key). The code fingerprint is the digest of the running
    executable, so a rebuild with different code gives every cell a new
    address while re-running the same binary finds the old ones;
    experiments never need to declare which code they depend on.
    {!Journal} keys its records by this address and stores their rows in
    the {!encode_rows} format. *)

type rows = string list list
(** The table rows a cell produced. *)

val code_fingerprint : unit -> string
(** Digest of [Sys.executable_name] (hex). Falls back to a constant when
    the executable cannot be read (e.g. self-deleted binary). *)

val cell_address :
  fingerprint:string -> exp_id:string -> scope:string -> cell_key:string -> string
(** Stable hex address of one cell. *)

val encode_rows : rows -> string
(** Serialize rows to the line-oriented payload format (no digest
    framing: the journal's WAL frames each record). *)

val decode_rows : string -> rows option
(** Inverse of {!encode_rows}; [None] on any malformation. *)
