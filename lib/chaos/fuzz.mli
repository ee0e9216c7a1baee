(** The randomized robustness campaign over the integer-valued stack:
    generate (protocol, n, t, faulty, inputs, advice, fault-schedule)
    configurations from one [Rng] stream, run each through {!Engine}'s
    oracles, and delta-debug any violating schedule down to a minimal
    reproducing counterexample.

    Everything — generation, execution, shrinking, the campaign
    checksum — is a pure function of the seed, so a campaign's output
    is byte-identical across re-runs and a printed counterexample
    replays forever. *)

module E : module type of Engine.Make (Bap_core.Value.Int)

val mutant : int -> int -> int
(** Deterministic value perturbation for equivocation faults and the
    sabotage self-test. *)

val all_protocols : E.protocol list

val protocol_of_name : string -> E.protocol option
(** Inverse of {!E.protocol_name}; [None] on unknown names. *)

val run_one : ?sabotage:bool -> E.config -> E.report

val shrink : ?sabotage:bool -> E.config -> Schedule.t
(** Minimal schedule still violating some oracle on this
    configuration. *)

type counterexample = {
  run : int;  (** 1-based index of the violating run in the campaign. *)
  config : E.config;
  report : E.report;
  shrunk : Schedule.t;
}

type campaign = {
  runs : int;
  counterexamples : counterexample list;
  checksum : int64;
      (** Folds every run's outcome: the determinism witness. *)
}

val campaign :
  ?sabotage:bool ->
  ?progress:(run:int -> violations:int -> unit) ->
  protocols:E.protocol list ->
  runs:int ->
  seed:int ->
  unit ->
  campaign

val pp_counterexample : Format.formatter -> counterexample -> unit
