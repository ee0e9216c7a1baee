(* Algorithm 6 (Byzantine Broadcast with Implicit Committee):
   Lemmas 21-23 - validity with sender certificate, default without,
   committee agreement with at most k faulty certified members. *)

open Helpers

(* Build committee certificates by hand: members get t+1 signatures from
   processes 0..t. *)
let make_cert pki ~t ~member =
  {
    S.W.cc_member = member;
    cc_sigs =
      List.init (t + 1) (fun j ->
          (j, Pki.sign (Pki.key pki j) (S.W.committee_payload member)));
  }

let run_bb ?adversary ~n ~t ~k ~faulty ~sender ~committee ~inputs () =
  let pki = Pki.create ~n in
  let adversary =
    match adversary with Some make -> make pki | None -> Adversary.passive
  in
  let certs =
    Array.init n (fun i ->
        if List.mem i committee then Some (make_cert pki ~t ~member:i) else None)
  in
  let outcome =
    run_protocol ~adversary ~n ~faulty (fun ctx ->
        let i = S.R.id ctx in
        (S.Bb_committee.run ctx ~pki ~key:(Pki.key pki i) ~quorum:(t + 1) ~k ~tag:4
           ~cc:certs.(i) ~senders:[ sender ] inputs.(i)).(sender))
  in
  (S.R.honest_decisions outcome, outcome, pki)

let test_validity_with_cert () =
  let n = 8 and t = 2 and k = 1 in
  let inputs = Array.make n 0 in
  inputs.(0) <- 42;
  let decisions, outcome, _ =
    run_bb ~n ~t ~k ~faulty:[| 5 |] ~sender:0 ~committee:[ 0; 1; 5 ] ~inputs ()
  in
  List.iter
    (fun (_, v) -> Alcotest.(check (option int)) "sender value" (Some 42) v)
    decisions;
  Alcotest.(check int) "k+1 rounds" (k + 1) outcome.S.R.rounds

let test_default_without_cert () =
  let n = 8 and t = 2 and k = 1 in
  let inputs = Array.make n 7 in
  let decisions, _, _ =
    run_bb ~n ~t ~k ~faulty:[||] ~sender:0 ~committee:[ 1; 2 ] ~inputs ()
  in
  List.iter
    (fun (_, v) -> Alcotest.(check (option int)) "bot" None v)
    decisions

(* A faulty certified sender that equivocates: starts chains for two
   different values towards different halves. Committee agreement
   (Lemma 23) must still hold among certified honest members. *)
let equivocating_sender pki ~t ~sender : Helpers.S.W.t Bap_sim.Adversary.t =
  Adversary.
    {
      name = "equivocating-bb-sender";
      make =
        (fun ~n:_ ~faulty:_ ->
          let key = Pki.key pki sender in
          let cert = make_cert pki ~t ~member:sender in
          fun view ~src _outbox ->
            if view.round = 1 && src = sender then
              Pairs
                (List.init view.n (fun dst ->
                     let v = if dst mod 2 = 0 then 10 else 20 in
                     let link_sig = Pki.sign key (S.W.chain_root_payload v cert) in
                     (dst, S.W.Bb_chain (4, sender, S.W.Chain_root { value = v; cert; link_sig }))))
            else mute);
    }

let test_committee_agreement_equivocating_sender () =
  let n = 10 and t = 3 and k = 2 in
  let inputs = Array.make n 0 in
  let committee = [ 0; 1; 2; 3 ] in
  let decisions, _, _ =
    run_bb
      ~adversary:(fun pki -> equivocating_sender pki ~t ~sender:0)
      ~n ~t ~k ~faulty:[| 0 |] ~sender:0 ~committee ~inputs ()
  in
  (* All honest certified members must return the same value. *)
  let certified_decisions =
    List.filter (fun (i, _) -> List.mem i committee) decisions
  in
  Alcotest.(check bool) "committee agreement" true
    (all_equal (List.map snd certified_decisions))

let test_relay_through_rounds () =
  (* The sender reveals its chain only to one committee member; the
     value must still spread to everyone within k+1 rounds via
     relaying. *)
  let n = 10 and t = 3 and k = 2 in
  let sender = 0 in
  let reveal_to_one pki : Helpers.S.W.t Bap_sim.Adversary.t =
    Adversary.
      {
        name = "reveal-to-one";
        make =
          (fun ~n:_ ~faulty:_ ->
            let key = Pki.key pki sender in
            let cert = make_cert pki ~t ~member:sender in
            fun view ~src _outbox ->
              if view.round = 1 && src = sender then begin
                let v = 33 in
                let link_sig = Pki.sign key (S.W.chain_root_payload v cert) in
                Pairs [ (1, S.W.Bb_chain (4, sender, S.W.Chain_root { value = v; cert; link_sig })) ]
              end
              else mute);
      }
  in
  let inputs = Array.make n 0 in
  let decisions, _, _ =
    run_bb ~adversary:reveal_to_one ~n ~t ~k ~faulty:[| 0 |] ~sender
      ~committee:[ 0; 1; 2; 3 ] ~inputs ()
  in
  (* Process 1 (certified) relays; every certified honest process ends
     with the same output; value 33 is the only candidate. *)
  let certified = List.filter (fun (i, _) -> List.mem i [ 1; 2; 3 ]) decisions in
  Alcotest.(check bool) "committee agreement" true (all_equal (List.map snd certified));
  List.iter
    (fun (_, v) ->
      match v with
      | Some x -> Alcotest.(check int) "relayed value" 33 x
      | None -> ())
    certified

let test_forged_cert_rejected () =
  (* A sender whose "certificate" has too few signatures is ignored:
     like having no certificate at all. *)
  let n = 8 and t = 3 and k = 1 in
  let pki = Pki.create ~n in
  let weak_cert =
    {
      S.W.cc_member = 0;
      cc_sigs = [ (1, Pki.sign (Pki.key pki 1) (S.W.committee_payload 0)) ];
    }
  in
  let outcome =
    run_protocol ~n ~faulty:[||] (fun ctx ->
        let i = S.R.id ctx in
        let cc = if i = 0 then Some weak_cert else None in
        (S.Bb_committee.run ctx ~pki ~key:(Pki.key pki i) ~quorum:(t + 1) ~k ~tag:4 ~cc
           ~senders:[ 0 ] 55).(0))
  in
  List.iter
    (fun (_, v) -> Alcotest.(check (option int)) "bot" None v)
    (S.R.honest_decisions outcome)

let prop_validity =
  qcheck ~count:40 ~name:"Lemma 21: honest certified sender's value delivered"
    QCheck2.Gen.(
      let* n = int_range 6 16 in
      let* t = int_range 1 ((n - 1) / 2) in
      let* k = int_range 1 3 in
      let* f = int_range 0 (min t (n - 2)) in
      let* seed = int_range 0 1_000_000 in
      let* v = int_range 0 100 in
      return (n, t, k, f, seed, v))
    (fun (n, t, k, f, seed, v) ->
      let rng = Rng.create seed in
      (* sender 0 honest: sample faults among 1..n-1 *)
      let faulty =
        Array.of_list
          (List.map (fun x -> x + 1) (Bap_sim.Rng.sample_without_replacement rng f (n - 1)))
      in
      let inputs = Array.make n 0 in
      inputs.(0) <- v;
      (* committee: sender + up to k faulty members *)
      let committee = 0 :: Array.to_list (Array.sub faulty 0 (min k f)) in
      let decisions, _, _ =
        run_bb ~n ~t ~k ~faulty ~sender:0 ~committee ~inputs ()
      in
      List.for_all (fun (_, d) -> d = Some v) decisions)

let suite =
  [
    Alcotest.test_case "validity with sender certificate" `Quick test_validity_with_cert;
    Alcotest.test_case "default without sender certificate" `Quick test_default_without_cert;
    Alcotest.test_case "committee agreement vs equivocating sender" `Quick
      test_committee_agreement_equivocating_sender;
    Alcotest.test_case "relay spreads a selectively revealed chain" `Quick
      test_relay_through_rounds;
    Alcotest.test_case "forged certificate rejected" `Quick test_forged_cert_rejected;
    prop_validity;
  ]
