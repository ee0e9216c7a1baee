(** Byzantine attack strategies against the protocol stack's wire format.

    All strategies are rushing (they see the honest messages of the
    current round before fixing their own) and compose with the generic
    adversaries of {!Bap_sim.Adversary} (passive, silent, crash
    variants). Every strategy preserves the runtime's authenticated-
    channel discipline: faulty processes can only speak as themselves. *)

module Make (V : Bap_core.Value.S) (W : Bap_core.Wire.S with type value = V.t) : sig
  type t = W.t Bap_sim.Adversary.t

  val equivocate : v0:V.t -> v1:V.t -> t
  (** Replace the value of every value-carrying message with [v0]
      towards even recipients and [v1] towards odd ones: the classic
      split attack on threshold counting. *)

  val value_push : v:V.t -> t
  (** Always vote/echo the fixed value [v], trying to drag agreement to
      it; strong unanimity must resist it. *)

  val advice_liar : t
  (** Behave honestly except in the advice round, where every honest
      process is declared faulty and every faulty one honest. *)

  val advice_liar_then_silent : t
  (** {!advice_liar} in round 1, then total silence: the worst pure
      attack on the classification machinery. *)

  val prediction_attacker : v0:V.t -> v1:V.t -> t
  (** {!advice_liar} in round 1, then per-recipient equivocation on
      every value message, with conciliation messages revealed to half
      the processes only. *)

  val prediction_attacker_auth : pki:Bap_crypto.Pki.t -> v0:V.t -> v1:V.t -> t
  (** Authenticated-stack variant: additionally deals conflicting signed
      gradecast values, equivocates committee-broadcast chain roots
      (re-signed for real with the faulty members' keys) and splits the
      final announcements. Needs the execution's PKI to sign. *)

  val adaptive_splitter : n_minus_t:int -> junk:(int -> V.t) -> t
  (** The strongest implemented adversary for the unauthenticated stack:
      counts the honest votes of each round and adds just enough faulty
      votes for the minority value to keep every count below the
      [n_minus_t] quorum; stays silent in core-set rounds; and reveals a
      fresh below-domain value [junk round] to half the processes in
      conciliation rounds, declaring a degenerate leader set. [junk]
      must be injective and below the honest value domain in
      [V.compare] order. *)

  val echo_chaos : v0:V.t -> v1:V.t -> t
  (** Scan the instance tags honest processes use this round and send
      conflicting recipient-split values under the same tags instead of
      the puppets' own messages. *)

  val staggered_crash : interval:int -> t
  (** Crash failures one per [interval] rounds: the classic worst case
      for early stopping (kings die one phase at a time). *)

  val king_killer : t
  (** Follow the protocol but never send king broadcasts. *)

  val vote_withholder : t
  (** Follow the protocol but withhold committee votes (Algorithm 7's
      election round). *)

  val partition : targets:int list -> t
  (** One-way partition: say nothing to the target set, behave normally
      towards everyone else. *)

  val flip_flop : t
  (** Intermittent faults: honest on even rounds, silent on odd ones. *)

  val committee_infiltrator : pki:Bap_crypto.Pki.t -> v0:V.t -> v1:V.t -> t
  (** A certified faulty committee member equivocates its broadcast
      chain roots between [v0] and [v1], re-signing each for real. *)
end
