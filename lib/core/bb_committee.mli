(** Algorithm 6: Byzantine Broadcast with an Implicit Committee.

    A Dolev-Strong signature-chain broadcast truncated to k+1 rounds,
    where only processes that can attach a committee certificate
    ([quorum] signatures on <COMMITTEE, p_j>) may start or extend chains.
    If at most k faulty processes hold committee certificates, a chain of
    length k+1 contains an honest committee member's signature, which
    gives the classic relay guarantee (Lemmas 21-23): committee
    agreement, validity with a sender certificate, and default (bot)
    without one. The module runs any number of instances (distinct
    senders) in parallel over the same k+1 rounds.

    Classic Dolev-Strong is the instance with [quorum = 0] and [k = t]:
    every process certifies itself with zero signatures, so every
    process may sign, and a chain of t+1 distinct signers holds an
    honest one. *)

module Pki = Bap_crypto.Pki

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) : sig
  val rounds : k:int -> int
  (** Exactly [k + 1]. *)

  val run :
    ?memo:W.memo ->
    R.ctx ->
    pki:Pki.t ->
    key:Pki.key ->
    quorum:int ->
    k:int ->
    tag:W.tag ->
    cc:W.committee_cert option ->
    senders:int list ->
    V.t ->
    V.t option array
  (** Run one instance per process in [senders]; this process's input is
      used in the instance where it is the sender. Slot [s] of the
      n-slot result is instance [s]'s output ([None] is the paper's bot,
      and the slot of every process outside [senders]). Certificates and
      chain links count as valid with [quorum] committee signatures.
      [memo] is the execution's validation memo (see {!Wire.S.memo});
      without one, the call runs on a fresh memo of its own. *)
end
