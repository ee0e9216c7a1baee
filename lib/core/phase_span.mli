(** Per-sub-protocol telemetry spans for lock-step protocol code. *)

module Make (R : Bap_sim.Runtime.S) : sig
  val run :
    ?attrs:(unit -> (string * Bap_telemetry.Telemetry.value) list) ->
    R.ctx ->
    string ->
    (unit -> 'a) ->
    'a
  (** [run ctx name f] wraps [f] in a [cat:"core"] span named [name],
      emitted only from process 0 (all processes execute the same
      deterministic schedule, so one copy suffices). Begin and end
      events carry the current round, giving the span the round extent
      [begin.round + 1 .. end.round]; [attrs] follow the round on the
      Begin event. Allocation is recorded by the span itself when the
      probe is on (see {!Bap_telemetry.Telemetry.span}). *)
end
