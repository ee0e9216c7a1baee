(** One fully instantiated protocol stack per value domain.

    [Stack.Make (V)] fixes the wire format and the lock-step runtime
    for value type [V.t] and instantiates every protocol of the paper
    against them, together with one-call harnesses that run a complete
    execution (Algorithm 1 and its sub-protocols) under a chosen fault
    set, adversary, and advice. *)

module Advice = Bap_prediction.Advice
module Pki = Bap_crypto.Pki
module Adversary = Bap_sim.Adversary
module Trace = Bap_sim.Trace

module Make (V : Value.S) : sig
  module W : Wire.S with type value = V.t
  module R : Bap_sim.Runtime.S with type msg = W.t
  module Classify_p : module type of Classify.Make (W) (R)
  module Graded_unauth : module type of Graded_unauth.Make (V) (W) (R)
  module Graded_auth : module type of Graded_auth.Make (V) (W) (R)
  module Graded_core_set : module type of Graded_core_set.Make (V) (W) (R)
  module Conciliate : module type of Conciliate.Make (V) (W) (R)
  module Ba_class_unauth : module type of Ba_class_unauth.Make (V) (W) (R)
  module Bb_committee : module type of Bb_committee.Make (V) (W) (R)
  module Ba_class_auth : module type of Ba_class_auth.Make (V) (W) (R)
  module Early_stopping : module type of Early_stopping.Make (V) (W) (R)
  module Wrapper : module type of Wrapper.Make (V) (W) (R)

  (** {1 Wrapper configurations} *)

  val unauth_config : t:int -> Wrapper.config
  (** Theorem 11: unauthenticated components (t < n/3). *)

  val auth_config : ?memo:W.memo -> pki:Pki.t -> key:Pki.key -> t:int -> unit -> Wrapper.config
  (** Theorem 12: authenticated components (t < n/2). [memo] is the
      execution's validation memo, shared by all of its processes (see
      {!Wire.S.memo}); without one, every component call runs on a fresh
      memo of its own. *)

  val unauth_config_no_vote : t:int -> Wrapper.config
  (** Ablation: {!unauth_config} with the classification vote skipped
      and the raw advice trusted (the round is still consumed, so the
      schedule is unchanged). *)

  (** {1 One-call execution harnesses} *)

  val grouping : W.t Bap_sim.Runtime.grouping
  (** The runtime grouping both harnesses use: signature-free messages
      keyed by themselves, with {!Wire.S.hash} and {!Wire.S.equal}. *)

  val run_unauth :
    ?adversary:W.t Adversary.t ->
    ?trace:W.t Trace.t ->
    ?max_rounds:int ->
    ?network:(round:int -> src:int -> dst:int -> W.t list -> W.t list) ->
    ?on_round:(int -> unit) ->
    ?mode:[ `Auto | `Concrete ] ->
    ?config:Wrapper.config ->
    ?value_predictions:V.t array ->
    t:int ->
    faulty:int array ->
    inputs:V.t array ->
    advice:Advice.t array ->
    unit ->
    V.t Wrapper.result R.outcome
  (** Run the full unauthenticated stack; [n] is [Array.length inputs].
      [on_round] is {!Bap_sim.Runtime.S.run}'s once-per-round hook.
      Raises [Invalid_argument] if advice and inputs disagree on [n] or
      more than [t] processes are marked faulty. *)

  val run_auth :
    ?adversary:(Pki.t -> W.t Adversary.t) ->
    ?trace:W.t Trace.t ->
    ?max_rounds:int ->
    ?network:(round:int -> src:int -> dst:int -> W.t list -> W.t list) ->
    ?on_round:(int -> unit) ->
    ?mode:[ `Auto | `Concrete ] ->
    ?value_predictions:V.t array ->
    t:int ->
    faulty:int array ->
    inputs:V.t array ->
    advice:Advice.t array ->
    unit ->
    V.t Wrapper.result R.outcome * Pki.t
  (** Same for the authenticated stack. A fresh PKI is created per run
      and returned; the adversary constructor receives it so corrupted
      processes can sign with their own keys. One validation memo is
      created beside it and shared by the honest processes only. *)

  (** {1 Metric helpers} *)

  val agreement : V.t Wrapper.result R.outcome -> bool
  (** All honest decisions carry equal values (vacuously true when no
      honest process decided). *)

  val decision_round : V.t Wrapper.result R.outcome -> int
  (** The paper's time complexity: the round by which the last honest
      process has fixed its decision. *)

  val unanimous_validity : inputs:V.t array -> faulty:int array -> V.t Wrapper.result R.outcome -> bool
  (** With unanimous honest input [v], every honest decision is [v];
      true whenever honest inputs are split. *)

  val messages_by_component :
    ?value_prediction:bool -> Wrapper.config -> t:int -> 'r R.outcome -> (string * int) list
  (** Attribute per-round honest message counts to wrapper components
      using the deterministic schedule, sorted by component label. *)
end
