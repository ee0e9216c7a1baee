(** Algorithm 7: Authenticated Byzantine Agreement with Classification.

    k + 3 rounds: committee election (one round of signed votes to the
    2k+1 most trusted processes), n parallel Byzantine Broadcasts with
    implicit committee (k + 1 rounds), and a final round in which
    committee members announce the plurality of the broadcast outputs.
    Under k >= #misclassified, 2k+1 <= n - t - k and t < n/2, honest
    certified members outnumber faulty ones and everyone decides the
    same plurality (Lemmas 24-27). *)

module Advice = Bap_prediction.Advice
module Pki = Bap_crypto.Pki

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) : sig
  val rounds : k:int -> int
  (** Exactly [k + 3]. *)

  val feasible : n:int -> t:int -> k:int -> bool
  (** [2k+1 <= n - t - k] and [t < n/2]. *)

  val max_feasible_k : n:int -> t:int -> int

  val run :
    ?memo:W.memo ->
    R.ctx ->
    pki:Pki.t ->
    key:Pki.key ->
    t:int ->
    k:int ->
    base_tag:W.tag ->
    V.t ->
    Advice.t ->
    V.t
  (** Consumes tags [base_tag .. base_tag + 2]. [memo] is the
      execution's validation memo (see {!Wire.S.memo}); without one, the
      call runs on a fresh memo of its own. *)
end
