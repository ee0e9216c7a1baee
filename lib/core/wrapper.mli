(** Algorithm 1: Byzantine Agreement with Predictions — the high-level
    guess-and-double wrapper.

    After one classification round, the wrapper runs ceil(log2 t) + 1
    phases. Phase phi assumes k = 2^(phi-1) classification errors: it
    interleaves three graded consensus calls (protecting validity and
    detecting agreement) with a truncated early-stopping BA (wins when
    f <= k) and a conditional BA-with-classification (wins when at most
    k processes are misclassified). Every sub-protocol consumes a
    fixed, deterministic number of rounds, so honest processes stay in
    lock-step without any explicit timer.

    The wrapper is parametric in the three sub-protocols; {!Stack}
    instantiates it once with the unauthenticated components (Theorem
    11) and once with the authenticated ones (Theorem 12). *)

module Advice = Bap_prediction.Advice

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) : sig
  type config = {
    classify : R.ctx -> Advice.t -> Advice.t;
        (** The classification step (normally Algorithm 2); must consume
            exactly one round. Replaceable for ablation studies (e.g.
            trusting the raw advice without the vote). *)
    gc : R.ctx -> tag:W.tag -> V.t -> V.t * int;
    gc_rounds : int;
    bc : R.ctx -> k:int -> base_tag:W.tag -> V.t -> Advice.t -> V.t;
        (** The conditional BA with classification; must consume exactly
            [bc_rounds k] rounds and [bc_tags k] tags. *)
    bc_rounds : k:int -> int;
    bc_tags : k:int -> int;
    ablate_es : bool;
        (** Ablation switch: replace the early-stopping sub-protocol with
            silence of the same duration. Correctness is then conditional
            on the classification BA eventually succeeding — used by
            experiment E13 to show the interleaving is necessary. *)
    ablate_bc : bool;  (** Same for the conditional BA with classification. *)
  }

  val phases_total : t:int -> int
  (** [ceil(log2 t) + 1] (and 1 for t <= 1). *)

  val schedule : ?value_prediction:bool -> config -> t:int -> (string * int * int * int) list
  (** Deterministic round layout: [(component, phase, first, last)] with
      1-based inclusive round numbers. Used by the experiment harness to
      attribute message counts to components. [value_prediction] adds
      the optional fast-path segment (see {!run}). *)

  val rounds : ?value_prediction:bool -> config -> t:int -> int
  (** Total lock-step rounds a run consumes: the last round of
      {!schedule}. *)

  type 'v result = {
    value : 'v;
    decided_round : int;
        (** Round in which the decision became fixed (the paper's time
            complexity counts up to this point; the process keeps helping
            for one more phase before its function returns). *)
  }

  val run :
    ?value_prediction:V.t -> config -> R.ctx -> t:int -> V.t -> Advice.t -> V.t result
  (** [run cfg ctx ~t input advice] plays Algorithm 1 at process
      [R.id ctx]. [value_prediction] enables the fast-path extension
      beyond the paper: one graded consensus on the inputs, adoption of
      the predicted value on grade 0, and an agreement check via a
      second graded consensus — O(1) decision when predictions are
      accurate and shared, two graded-consensus calls of overhead when
      they are garbage. *)
end
