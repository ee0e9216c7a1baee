(* Classic authenticated Byzantine Broadcast (Dolev-Strong 1983) and the
   standard reduction from Byzantine Agreement to n parallel broadcasts
   (valid for t < n/2). Used as the no-predictions authenticated baseline
   and as the reference point for the message lower-bound experiments:
   the protocol always takes t + 1 rounds, whatever f and whatever the
   prediction quality would have been.

   Broadcast properties for any t < n: all honest processes deliver the
   same value, and an honest sender's value is delivered by everyone.
   The relay argument: a value accepted by an honest process in round
   j <= t carries j signatures and is re-broadcast with j+1; a value
   first seen in round t+1 carries t+1 distinct signatures, one of which
   is honest and therefore already relayed it. *)

module Pki = Bap_crypto.Pki
module Value = Bap_core.Value
module Wire = Bap_core.Wire

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) : sig
  val rounds : t:int -> int
  (** Exactly [t + 1]. *)

  val broadcast :
    R.ctx -> pki:Pki.t -> key:Pki.key -> t:int -> tag:W.tag -> sender:int -> V.t -> V.t option
  (** One broadcast instance; the value argument is used only by the
      sender. [None] is "no value delivered" (faulty sender). *)

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
  let rounds ~t = t + 1

  type instance = {
    sender : int;
    mutable accepted : V.t list;  (* at most two values *)
    mutable fresh : W.ds_chain list;
  }

  let run_instances ctx ~pki ~key ~t ~tag ~senders x =
    let me = R.id ctx in
    let n = R.n ctx in
    let states = List.map (fun s -> { sender = s; accepted = []; fresh = [] }) senders in
    let by_sender = Array.make n None in
    List.iter
      (fun st -> if st.sender >= 0 && st.sender < n then by_sender.(st.sender) <- Some st)
      states;
    let collect inbox ~length =
      (* One pass over the inbox, each chain dispatched to its instance. *)
      List.iter (fun st -> st.fresh <- []) states;
      Bap_sim.Inbox.iteri inbox ~f:(fun _ msgs ->
          List.iter
            (function
              | W.Ds_chain (tg, s, chain) when tg = tag && s >= 0 && s < n -> (
                match by_sender.(s) with
                | Some st when W.valid_ds_chain pki ~sender:s ~length chain ->
                  st.fresh <- chain :: st.fresh
                | Some _ | None -> ())
              | _ -> ())
            msgs);
      List.iter (fun st -> st.fresh <- List.rev st.fresh) states
    in
    let root_msgs =
      List.filter_map
        (fun st ->
          if st.sender = me then begin
            st.accepted <- [ x ];
            let link_sig = Pki.sign key (W.ds_root_payload ~sender:me x) in
            Some (W.Ds_chain (tag, me, W.Ds_root { sender = me; value = x; link_sig }))
          end
          else None)
        states
    in
    let inbox = R.broadcast_list ctx root_msgs in
    collect inbox ~length:1;
    for j = 2 to t + 1 do
      let extensions = ref [] in
      List.iter
        (fun st ->
          List.iter
            (fun chain ->
              let v = W.ds_chain_value chain in
              if (not (List.exists (V.equal v) st.accepted)) && List.length st.accepted < 2
              then begin
                st.accepted <- st.accepted @ [ v ];
                if not (List.mem me (W.ds_chain_signers chain)) then begin
                  let link_sig = Pki.sign key (W.ds_link_payload chain) in
                  extensions :=
                    W.Ds_chain (tag, st.sender, W.Ds_link { prev = chain; signer = me; link_sig })
                    :: !extensions
                end
              end)
            st.fresh)
        states;
      let out = List.rev !extensions in
      let inbox = R.broadcast_list ctx out in
      collect inbox ~length:j
    done;
    List.iter
      (fun st ->
        List.iter
          (fun chain ->
            let v = W.ds_chain_value chain in
            if (not (List.exists (V.equal v) st.accepted)) && List.length st.accepted < 2
            then st.accepted <- st.accepted @ [ v ])
          st.fresh)
      states;
    let result = Array.make n None in
    List.iter
      (fun st ->
        result.(st.sender) <-
          (match st.accepted with [ v ] -> Some v | [] | _ :: _ :: _ -> None))
      states;
    result

  let broadcast ctx ~pki ~key ~t ~tag ~sender x =
    (run_instances ctx ~pki ~key ~t ~tag ~senders:[ sender ] x).(sender)

  let interactive_consistency ctx ~pki ~key ~t ~tag x =
    let n = R.n ctx in
    run_instances ctx ~pki ~key ~t ~tag ~senders:(List.init n (fun s -> s)) x

  let agree ctx ~pki ~key ~t ~tag x =
    let delivered = interactive_consistency ctx ~pki ~key ~t ~tag x in
    match Bap_sim.Inbox.plurality (Bap_sim.Inbox.votes delivered) ~compare:V.compare with
    | Some (w, _) -> w
    | None -> x
end
