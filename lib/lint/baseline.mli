(** The committed grandfather file (lint-baseline.json): pre-existing
    findings the gate tolerates, keyed on (rule, file, line). *)

type entry = { rule_id : string; file : string; line : int }

val entry_of_finding : Finding.t -> entry
val compare_entry : entry -> entry -> int

val load : string -> entry list
(** Missing file means an empty baseline. @raise Invalid_argument or
    {!Bap_telemetry.Json.Parse} on a malformed one. *)

val save : string -> Finding.t list -> unit

val to_json : entry list -> string
val of_json : string -> entry list

type diff = {
  fresh : Finding.t list;  (** Findings not covered by the baseline. *)
  stale : entry list;  (** Baseline entries that no longer fire. *)
  grandfathered : int;  (** Findings matched by the baseline. *)
}

val diff : baseline:entry list -> Finding.t list -> diff
