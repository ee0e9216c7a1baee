(** Authenticated graded consensus for t < n/2 (the paper's Theorem 8,
    taken off the shelf from Momose-Ren): n parallel signed gradecasts,
    Katz-Koo style, combined so that each process sends one message per
    round — 3 rounds, O(n^2) messages. See the implementation for the
    full correctness argument. *)

module Pki = Bap_crypto.Pki

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) : sig
  val rounds : int
  (** Always 3. *)

  val gradecast :
    ?memo:W.memo ->
    R.ctx ->
    pki:Pki.t ->
    key:Pki.key ->
    t:int ->
    tag:W.tag ->
    V.t ->
    (V.t * int) option array
  (** The underlying n-dealer signed gradecast: slot [d] holds process
      [d]'s delivered [(value, level)] with level 2 or 1, or [None] for
      bot. For t < n/2: an honest dealer is delivered at level 2 by
      everyone, and a level-2 delivery at any honest process forces a
      level >= 1 delivery of the same value at every honest process. *)

  val run :
    ?memo:W.memo -> R.ctx -> pki:Pki.t -> key:Pki.key -> t:int -> tag:W.tag -> V.t -> V.t * int
  (** Requires t < n/2 for the guarantees. Consumes one tag. [memo] is
      the execution's validation memo (see {!Wire.S.memo}); without one,
      the call runs on a fresh memo of its own. *)
end
