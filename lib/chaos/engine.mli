(** One chaos execution: a protocol, a system configuration, and a fault
    {!Schedule} in; a safety verdict out. Exceptions escaping protocol
    code and round-limit overruns become violations, never crashes — a
    fuzzer must survive what it finds. *)

module Make (V : Bap_core.Value.S) : sig
  (** The oracle verdicts, re-exported so campaign reports are
      self-contained. See {!Oracle} for the checking functions. *)
  module Oracle : sig
    type violation =
      | Agreement of { decisions : (int * V.t) list }
      | Validity of { expected : V.t; decisions : (int * V.t) list }
      | Termination of { rounds : int; bound : int }
      | Monitor_unsound of { honest_flagged : (int * string) list }
      | Crash of { exn : string }

    val pp_violation : Format.formatter -> violation -> unit
  end

  type protocol = Unauth | Auth | Es_baseline | Pk_baseline

  val protocol_name : protocol -> string

  type config = {
    protocol : protocol;
    t : int;
    faulty : int array;
    inputs : V.t array;  (** Length [n]. *)
    advice : Bap_prediction.Advice.t array;
        (** Per-process; ignored by the baselines. *)
    schedule : Schedule.t;
  }

  val n_of : config -> int

  val round_bound : config -> int
  (** The deterministic worst-case round count of the configured
      protocol: every implementation in this repository runs a fixed
      schedule, so exceeding this bound is a safety violation, not a
      slow run. *)

  type report = {
    violations : Oracle.violation list;
    rounds : int;
    decisions : (int * V.t) list;  (** Honest decisions, ascending id. *)
  }

  val run :
    ?sabotage_validity:bool ->
    ?with_trace:bool ->
    mutant:(int -> V.t -> V.t) ->
    config ->
    report
  (** Compile the schedule into adversary + network hook, execute, and
      check every oracle. [sabotage_validity] deliberately tampers with
      the first honest decision when the schedule equivocates — the
      harness self-test proving the oracles are live, not vacuously
      green. [mutant salt v] must differ from [v] for equivocation to
      bite. [with_trace] (default [true]) records a delivery trace and
      runs the monitor-soundness oracle; the model checker turns it off
      so that every schedule without a network-side fault ([Drop],
      [Duplicate], [Reorder], [Corrupt]) runs on the runtime's counted
      engine — the decision-level oracles (agreement, validity,
      termination) still run. A network-side fault installs the
      runtime's per-edge hook, which keeps its run on the concrete
      engine. *)

  val pp_config : Format.formatter -> config -> unit
  val pp_report : Format.formatter -> report -> unit
end
