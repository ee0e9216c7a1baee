(* Authenticated graded consensus for t < n/2 (the paper's Theorem 8,
   whose construction it takes off the shelf from Momose-Ren). We build
   it from n parallel signed gradecasts, Katz-Koo style, combined so that
   each process sends one message per round: 3 rounds, O(n^2) messages.

   Gradecast (dealer d), combined over all dealers:
   - Round 1: every process, acting as a dealer, broadcasts its signed
     value.
   - Round 2: every process broadcasts, for each dealer proposal it
     received *directly* in round 1, that proposal plus its own echo
     signature on it. (Honest processes therefore echo at most one value
     per dealer.)
   - Round 3: every process broadcasts, per dealer: an echo certificate
     (n - t echo signatures on one proposal) if it assembled one, and a
     conflict proof (two dealer signatures on different values) if it saw
     one.

   Delivery for dealer d at process i (levels 2 / 1 / 0):
   - level 2 on v: i assembled its own certificate for (d, v) at the end
     of round 2 and saw no conflicting dealer signature through round 3;
   - level 1 on v: i holds (own or received) valid certificates for d and
     they all carry the same value v;
   - level 0 (bot): otherwise.

   Why this is a correct gradecast for t < n/2:
   - If i delivers level 2 on v, then no honest process echoed any
     v' <> v for d (an honest echo is broadcast, so i would have seen the
     conflicting dealer signature in round 2). A certificate for (d, v')
     needs n - t >= t + 1 echo signatures, at least one honest - so no
     certificate for any v' exists anywhere. Since i broadcast its own
     certificate in round 3, every honest process holds a certificate for
     (d, v) and no conflicting one: everyone delivers v at level >= 1.
   - If d is honest, unforgeability means no conflicting signature ever
     exists and every honest process assembles the full certificate in
     round 2: everyone delivers d's value at level 2.

   Graded consensus on top: let M_i(w) = #dealers delivered at level 2
   with value w, and m_i(w) = #dealers delivered at level >= 1 with value
   w. Each dealer contributes to at most one value, so at most one w can
   reach m_i(w) >= n - t (2(n-t) > n). Output (w, 1) if M_i(w) >= n - t;
   else (w, 0) if m_i(w) >= n - t; else (input, 0).
   - Strong unanimity: with unanimous honest input v, the >= n - t honest
     dealers all deliver (v, 2) everywhere.
   - Coherence: M_i(w) >= n - t at one process makes m_j(w) >= n - t at
     every honest j (gradecast level 2 forces level >= 1 with the same
     value everywhere), and w is the unique such value. *)

module Pki = Bap_crypto.Pki
module Inbox = Bap_sim.Inbox
module Bitset = Bap_sim.Bitset

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) = struct
  let rounds = 3

  (* The echoes collected for one (dealer, value) pair: a bitset of the
     distinct echoers and their signatures, newest first. *)
  type tally = {
    echoers : Bitset.t;
    mutable count : int;
    mutable sigs : (int * Pki.signature) list;
  }

  (* Per-dealer bookkeeping during one run. *)
  type dealer_state = {
    mutable proposals : (V.t * W.signed_value) list;  (* distinct values seen, dealer-signed *)
    mutable echoes : (V.t * tally) list;  (* per value, most recently extended first *)
    mutable certs : (V.t * W.echo_cert) list;  (* distinct values with a valid certificate *)
    mutable direct : W.signed_value option;  (* round-1 proposal received from the dealer *)
  }

  let gradecast ?memo ctx ~pki ~key ~t ~tag v =
    let memo = match memo with Some m -> m | None -> W.memo pki in
    let n = R.n ctx in
    let quorum = n - t in
    let states =
      Array.init n (fun _ -> { proposals = []; echoes = []; certs = []; direct = None })
    in
    (* Dealer ids come off the wire: range-check before indexing. *)
    let dealer_ok d = d >= 0 && d < n in
    let note_proposal d (sv : W.signed_value) =
      (* Cheap structural checks before any signature verification: the
         same proposal arrives from up to n senders per round. *)
      if dealer_ok d && sv.W.sv_dealer = d then begin
        let st = states.(d) in
        if
          (not (List.exists (fun (w, _) -> V.equal w sv.W.sv_value) st.proposals))
          && W.valid_signed_value ~memo pki ~tag sv
        then st.proposals <- (sv.W.sv_value, sv) :: st.proposals
      end
    in
    let note_echo d echoer (sv : W.signed_value) echo_sig =
      if dealer_ok d && sv.W.sv_dealer = d then begin
        let st = states.(d) in
        let v' = sv.W.sv_value in
        let tally =
          List.find_map (fun (w, ta) -> if V.equal w v' then Some ta else None) st.echoes
        in
        let sv_known_valid = List.exists (fun (w, _) -> V.equal w v') st.proposals in
        if
          (match tally with Some ta -> not (Bitset.mem ta.echoers echoer) | None -> true)
          && (sv_known_valid || W.valid_signed_value ~memo pki ~tag sv)
          && Pki.verify pki ~signer:echoer
               ~payload:(W.echo_payload ~memo ~tag ~dealer:d v')
               echo_sig
        then begin
          note_proposal d sv;
          let ta =
            match tally with
            | Some ta -> ta
            | None -> { echoers = Bitset.create n; count = 0; sigs = [] }
          in
          Bitset.set ta.echoers echoer;
          ta.count <- ta.count + 1;
          ta.sigs <- (echoer, echo_sig) :: ta.sigs;
          match st.echoes with
          | (_, head) :: _ when head == ta -> ()
          | _ -> st.echoes <- (v', ta) :: List.filter (fun (_, other) -> other != ta) st.echoes
        end
      end
    in
    let note_cert d (cert : W.echo_cert) =
      if dealer_ok d && cert.W.ec_signed.W.sv_dealer = d then begin
        let st = states.(d) in
        let v' = cert.W.ec_signed.W.sv_value in
        if
          (not (List.exists (fun (w, _) -> V.equal w v') st.certs))
          && W.valid_echo_cert ~memo pki ~tag ~threshold:quorum cert
        then begin
          note_proposal d cert.W.ec_signed;
          st.certs <- (v', cert) :: st.certs
        end
      end
    in
    (* Round 1: dealer role. *)
    let me = R.id ctx in
    let my_sv =
      {
        W.sv_dealer = me;
        sv_value = v;
        sv_sig = Pki.sign key (W.dealer_payload ~memo ~tag ~dealer:me v);
      }
    in
    let inbox1 = R.broadcast ctx (W.Gcast_init (tag, my_sv)) in
    Inbox.iteri inbox1 ~f:(fun sender msgs ->
        List.iter
          (function
            | W.Gcast_init (tg, sv)
              when tg = tag && sv.W.sv_dealer = sender && W.valid_signed_value ~memo pki ~tag sv ->
              note_proposal sender sv;
              if Option.is_none states.(sender).direct then states.(sender).direct <- Some sv
            | _ -> ())
          msgs);
    (* Round 2: echo the directly received proposals. *)
    let my_echoes =
      List.filter_map
        (fun st ->
          match st.direct with
          | None -> None
          | Some sv ->
            let payload = W.echo_payload ~memo ~tag ~dealer:sv.W.sv_dealer sv.W.sv_value in
            Some { W.ge_signed = sv; ge_sig = Pki.sign key payload })
        (Array.to_list states)
    in
    let inbox2 = R.broadcast ctx (W.Gcast_echo (tag, my_echoes)) in
    Inbox.iteri inbox2 ~f:(fun sender msgs ->
        List.iter
          (function
            | W.Gcast_echo (tg, echoes) when tg = tag ->
              List.iter
                (fun { W.ge_signed; ge_sig } ->
                  note_echo ge_signed.W.sv_dealer sender ge_signed ge_sig)
                echoes
            | _ -> ())
          msgs);
    (* Assemble own certificates from round-2 echoes. *)
    let own_cert_round2 = Array.make n None in
    Array.iteri
      (fun d st ->
        List.iter
          (fun (w, ta) ->
            if ta.count >= quorum && Option.is_none own_cert_round2.(d) then begin
              let signed =
                match List.find_opt (fun (w', _) -> V.equal w w') st.proposals with
                | Some (_, sv) -> sv
                | None -> assert false
              in
              let cert = { W.ec_signed = signed; ec_echoes = ta.sigs } in
              own_cert_round2.(d) <- Some cert;
              note_cert d cert
            end)
          st.echoes)
      states;
    let conflict_round2 = Array.map (fun st -> List.length st.proposals >= 2) states in
    (* Round 3: report certificates and conflicts. *)
    let my_reports =
      List.filter_map
        (fun d ->
          let cert = own_cert_round2.(d) in
          let conflict =
            match states.(d).proposals with
            | (_, a) :: (_, b) :: _ -> Some (a, b)
            | _ -> None
          in
          match (cert, conflict) with
          | None, None -> None
          | _ -> Some { W.gr_dealer = d; gr_cert = cert; gr_conflict = conflict })
        (List.init n (fun d -> d))
    in
    let inbox3 = R.broadcast ctx (W.Gcast_report (tag, my_reports)) in
    Inbox.iteri inbox3 ~f:(fun _ msgs ->
        List.iter
          (function
            | W.Gcast_report (tg, reports) when tg = tag ->
              List.iter
                (fun { W.gr_dealer = d; gr_cert; gr_conflict } ->
                  if d >= 0 && d < n then begin
                    (match gr_cert with Some c -> note_cert d c | None -> ());
                    match gr_conflict with
                    | Some (a, b)
                      when a.W.sv_dealer = d && b.W.sv_dealer = d
                           && (not (V.equal a.W.sv_value b.W.sv_value))
                           && W.valid_signed_value ~memo pki ~tag a
                           && W.valid_signed_value ~memo pki ~tag b ->
                      note_proposal d a;
                      note_proposal d b
                    | _ -> ()
                  end)
                reports
            | _ -> ())
          msgs);
    (* Deliver per dealer. *)
    Array.mapi
      (fun d st ->
        let conflict_final = List.length st.proposals >= 2 in
        match (own_cert_round2.(d), conflict_round2.(d) || conflict_final) with
        | Some cert, false -> Some (cert.W.ec_signed.W.sv_value, 2)
        | _ -> (
          match st.certs with
          | [ (w, _) ] -> Some (w, 1)
          | [] | _ :: _ :: _ -> None))
      states

  module Ps = Phase_span.Make (R)

  let run ?memo ctx ~pki ~key ~t ~tag v =
    Ps.run ctx "gc" @@ fun () ->
    let n = R.n ctx in
    let quorum = n - t in
    let deliveries = gradecast ?memo ctx ~pki ~key ~t ~tag v in
    (* Graded consensus decision. *)
    let level_count ~min_level w =
      Array.fold_left
        (fun acc -> function
          | Some (w', lvl) when lvl >= min_level && V.equal w w' -> acc + 1
          | _ -> acc)
        0 deliveries
    in
    let candidate =
      Array.fold_left
        (fun acc d ->
          match (acc, d) with
          | Some _, _ -> acc
          | None, Some (w, _) when level_count ~min_level:1 w >= quorum -> Some w
          | None, _ -> None)
        None deliveries
    in
    match candidate with
    | Some w -> if level_count ~min_level:2 w >= quorum then (w, 1) else (w, 0)
    | None -> (v, 0)
end
