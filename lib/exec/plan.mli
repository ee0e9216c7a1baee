(** Experiments as data: a plan is a list of independent, deterministic
    cells plus a pure rendering step.

    Each cell is a closed job — it derives its own RNG from constants in
    its key, touches no state shared with other cells, and returns table
    rows instead of printing. That contract is what lets the engine run
    cells on any domain in any order, replay them from the sweep journal,
    and still reassemble output byte-identical to a serial run. *)

type row = string list

type cell = {
  key : string;
      (** Canonical id within the experiment, e.g. ["f=3,m=4"]. Together
          with the experiment id, scope and code fingerprint it addresses
          the cell's journal record, so it must encode every parameter the
          cell's result depends on (the code fingerprint covers the
          rest). *)
  run : unit -> row list;
}

type t = {
  exp_id : string;  (** "E1" .. "E13". *)
  scope : string;  (** Sweep variant, e.g. ["quick"] or ["full"]. *)
  cells : cell list;
  render : (string * row list) list -> unit;
      (** Print the experiment's output given every cell's rows, in
          canonical [cells] order, keyed by [cell.key]. Runs serially on
          the main domain; all printing belongs here. *)
}

val cell : string -> (unit -> row list) -> cell

val row_cell : string -> (unit -> row) -> cell
(** Cell producing exactly one row. *)

val rows : (string * row list) list -> row list
(** Concatenate all rows in canonical order — the common rendering
    input. *)

val scope_of_quick : bool -> string

val keys : t -> string list
(** Every cell key, in canonical order — what a complete table contains,
    so renderers can name exactly which cells a DEGRADED run lost. *)

val cell_id : exp_id:string -> scope:string -> key:string -> string
(** ["E1/full/f=3,m=4"] — the human-readable cell identity used by the
    supervisor's quarantine reports and chaos schedules (the journal
    uses {!Cache.cell_address}, which also folds in the code
    fingerprint). *)
