(** Safety oracles: the properties that must hold on every execution,
    whatever the adversary, the advice, or the fault schedule — the
    paper's unconditional guarantees (Theorems 11-12), checked
    mechanically on each chaos run. *)

module Make (V : Bap_core.Value.S) (W : Bap_core.Wire.S with type value = V.t) : sig
  type violation =
    | Agreement of { decisions : (int * V.t) list }
    | Validity of { expected : V.t; decisions : (int * V.t) list }
    | Termination of { rounds : int; bound : int }
    | Monitor_unsound of { honest_flagged : (int * string) list }
    | Crash of { exn : string }

  val pp_violation : Format.formatter -> violation -> unit

  val check :
    n:int ->
    faulty:int array ->
    inputs:V.t array ->
    bound:int ->
    rounds:int ->
    decisions:(int * V.t) list ->
    W.t Bap_sim.Trace.t option ->
    violation list
  (** All four oracles on one execution's observables. [trace] is
      optional so callers without delivery recording still get the
      decision-level checks. *)
end
