(* Algorithm 6: Byzantine Broadcast with an Implicit Committee.

   A Dolev-Strong signature-chain broadcast truncated to k+1 rounds,
   where only processes that can attach a committee certificate
   ([quorum] signatures on <COMMITTEE, p_j>) may start or extend chains.
   If at most k faulty processes hold committee certificates, a chain of
   length k+1 contains an honest committee member's signature, which
   gives the classic relay guarantee (Lemmas 21-23):

   - Committee Agreement: all honest committee members return the same
     value;
   - Validity with Sender Certificate: an honest certified sender's
     value is returned by everyone;
   - Default without Sender Certificate: everyone returns bot.

   The module runs any number of instances (distinct senders) in
   parallel over the same k+1 rounds: Algorithm 7 needs all n instances
   at once, and running them in lock-step is also how the paper counts
   its rounds. Classic Dolev-Strong is the instance with quorum 0 and
   k = t (every process certified by zero signatures). *)

module Pki = Bap_crypto.Pki

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) = struct
  let rounds ~k = k + 1

  type instance_state = {
    sender : int;
    mutable accepted : V.t list;  (* X_i, at most two values *)
    mutable fresh : W.chain list;  (* R_i: valid chains from the last round *)
  }

  module Ps = Phase_span.Make (R)

  let run ?memo ctx ~pki ~key ~quorum ~k ~tag ~cc ~senders x =
    Ps.run ctx "bb" @@ fun () ->
    let memo = match memo with Some m -> m | None -> W.memo pki in
    let n = R.n ctx in
    let me = R.id ctx in
    let states = List.map (fun s -> { sender = s; accepted = []; fresh = [] }) senders in
    let by_sender = Array.make n None in
    List.iter
      (fun st -> if st.sender >= 0 && st.sender < n then by_sender.(st.sender) <- Some st)
      states;
    let has_cert =
      match cc with
      | Some cert ->
        cert.W.cc_member = me && W.valid_committee_cert ~memo pki ~quorum cert
      | None -> false
    in
    let collect inbox ~length =
      (* Valid chains of the expected length per instance, from any
         transporter (validity comes from the signatures, not the
         channel): one pass over the inbox, dispatched by sender. *)
      List.iter (fun st -> st.fresh <- []) states;
      Bap_sim.Inbox.iteri inbox ~f:(fun _ msgs ->
          List.iter
            (function
              | W.Bb_chain (tg, s, chain) when tg = tag && s >= 0 && s < n -> (
                match by_sender.(s) with
                | Some st when W.valid_chain ~memo pki ~quorum ~sender:s ~length chain ->
                  st.fresh <- chain :: st.fresh
                | Some _ | None -> ())
              | _ -> ())
            msgs);
      List.iter (fun st -> st.fresh <- List.rev st.fresh) states
    in
    (* Round 1: certified senders start their chains. *)
    let root_msgs =
      List.filter_map
        (fun st ->
          if st.sender = me && has_cert then begin
            st.accepted <- [ x ];
            let cert = Option.get cc in
            let link_sig = Pki.sign key (W.chain_root_payload ~memo x cert) in
            Some (W.Bb_chain (tag, me, W.Chain_root { value = x; cert; link_sig }))
          end
          else None)
        states
    in
    let inbox = R.broadcast_list ctx root_msgs in
    collect inbox ~length:1;
    (* Rounds 2 .. k+1: accept new values and relay extended chains. *)
    for j = 2 to k + 1 do
      let extensions = ref [] in
      List.iter
        (fun st ->
          List.iter
            (fun chain ->
              let v = W.chain_value chain in
              if
                (not (List.exists (V.equal v) st.accepted))
                && List.length st.accepted < 2
              then begin
                st.accepted <- st.accepted @ [ v ];
                if has_cert && not (List.mem me (W.chain_signers chain)) then begin
                  let cert = Option.get cc in
                  let link_sig = Pki.sign key (W.chain_link_payload ~memo chain cert) in
                  extensions :=
                    W.Bb_chain
                      (tag, st.sender, W.Chain_link { prev = chain; signer = me; cert; link_sig })
                    :: !extensions
                end
              end)
            st.fresh)
        states;
      let out = List.rev !extensions in
      let inbox = R.broadcast_list ctx out in
      collect inbox ~length:j
    done;
    (* Final acceptance pass over the chains of round k+1 (no relay). *)
    List.iter
      (fun st ->
        List.iter
          (fun chain ->
            let v = W.chain_value chain in
            if (not (List.exists (V.equal v) st.accepted)) && List.length st.accepted < 2
            then st.accepted <- st.accepted @ [ v ])
          st.fresh)
      states;
    let result = Array.make n None in
    List.iter
      (fun st ->
        result.(st.sender) <- (match st.accepted with [ v ] -> Some v | [] | _ :: _ :: _ -> None))
      states;
    result
end
