(* Classic authenticated Byzantine Broadcast (Dolev-Strong 1983) and the
   standard reduction from Byzantine Agreement to n parallel broadcasts
   (valid for t < n/2). Used as the no-predictions authenticated baseline
   and as the reference point for the message lower-bound experiments:
   the protocol always takes t + 1 rounds, whatever f and whatever the
   prediction quality would have been.

   The broadcast is Algorithm 6 ({!Bap_core.Bb_committee}) with every
   process certified by zero signatures and k = t: every process may
   start and extend chains. Broadcast properties for any t < n: all
   honest processes deliver the same value, and an honest sender's value
   is delivered by everyone. The relay argument is Algorithm 6's with
   every process certified: a value accepted by an honest process in
   round j <= t carries j signatures and is re-broadcast with j+1; a
   value first seen in round t+1 carries t+1 distinct signatures, one of
   which is honest and therefore already relayed it. *)

module Pki = Bap_crypto.Pki
module Value = Bap_core.Value
module Wire = Bap_core.Wire

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) : sig
  val rounds : t:int -> int
  (** Exactly [t + 1]. *)

  val agree : R.ctx -> pki:Pki.t -> key:Pki.key -> t:int -> tag:W.tag -> V.t -> V.t
  (** Byzantine agreement by n parallel broadcasts followed by a
      deterministic plurality over the delivered values (requires
      t < n/2 for strong unanimity). Same round count. *)

  val interactive_consistency :
    R.ctx -> pki:Pki.t -> key:Pki.key -> t:int -> tag:W.tag -> V.t -> V.t option array
  (** Interactive consistency (Pease-Shostak-Lamport): all honest
      processes agree on the full vector of inputs, with slot [i]
      holding an honest [p_i]'s actual input ([None] marks senders whose
      broadcast did not deliver). Same round count. *)
end = struct
  module Bb = Bap_core.Bb_committee.Make (V) (W) (R)

  let rounds ~t = Bb.rounds ~k:t

  let interactive_consistency ctx ~pki ~key ~t ~tag x =
    let n = R.n ctx in
    let cc = Some { W.cc_member = R.id ctx; cc_sigs = [] } in
    Bb.run ctx ~pki ~key ~quorum:0 ~k:t ~tag ~cc ~senders:(List.init n Fun.id) x

  let agree ctx ~pki ~key ~t ~tag x =
    let delivered = interactive_consistency ctx ~pki ~key ~t ~tag x in
    match Bap_sim.Inbox.plurality (Bap_sim.Inbox.votes delivered) ~compare:V.compare with
    | Some (w, _) -> w
    | None -> x
end
