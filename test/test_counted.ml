(* Differential tests for the scalable core: the counted fast path must
   be byte-identical to the concrete per-pair reference engine — same
   decisions, same rounds, and the exact same message/bit accounting —
   across all four protocol families, under both the curated adversary
   pool and randomly generated chaos schedules. Plus regression pins for
   the concrete path's arena reuse and the delivery order of faulty
   pairs. *)

open Helpers
module Gen = Bap_prediction.Gen
module Inbox = Bap_sim.Inbox
module Schedule = Bap_chaos.Schedule
module Inj = Bap_chaos.Injector.Make (V) (S.W)
module Ds = Bap_baselines.Dolev_strong.Make (V) (S.W) (S.R)
module Pk = Bap_baselines.Phase_king.Make (V) (S.W) (S.R)
module Memprobe = Bap_telemetry.Memprobe

let outcomes_equal (a : 'r S.R.outcome) (b : 'r S.R.outcome) =
  a.S.R.n = b.S.R.n
  && a.S.R.faulty = b.S.R.faulty
  && a.S.R.decisions = b.S.R.decisions
  && a.S.R.decision_round = b.S.R.decision_round
  && a.S.R.rounds = b.S.R.rounds
  && a.S.R.honest_sent = b.S.R.honest_sent
  && a.S.R.honest_per_round = b.S.R.honest_per_round
  && a.S.R.honest_received = b.S.R.honest_received
  && a.S.R.honest_bits = b.S.R.honest_bits
  && a.S.R.adversary_sent = b.S.R.adversary_sent

let unauth_adversaries =
  [|
    (fun _rng -> Adversary.passive);
    (fun _rng -> Adversary.silent);
    (fun _rng -> Adversary.silent_after 3);
    (fun _rng -> Adv.equivocate ~v0:0 ~v1:1);
    (fun _rng -> Adv.value_push ~v:1);
    (fun _rng -> Adv.advice_liar);
    (fun _rng -> Adv.advice_liar_then_silent);
    (fun _rng -> Adv.prediction_attacker ~v0:0 ~v1:1);
    (fun _rng -> Adv.echo_chaos ~v0:0 ~v1:1);
    (fun _rng -> Adv.staggered_crash ~interval:5);
    (fun _rng -> Adv.king_killer);
    (fun _rng -> Adv.flip_flop);
    (fun rng -> Adv.adaptive_splitter ~n_minus_t:(4 + Rng.int rng 8) ~junk:(fun r -> -r));
  |]

let placements = [| Gen.Uniform; Gen.Focused; Gen.Scattered; Gen.All_wrong |]

let diff_gen =
  QCheck2.Gen.(
    let* n = int_range 7 13 in
    let t = (n - 1) / 3 in
    let* f = int_range 0 t in
    let* seed = int_range 0 1_000_000 in
    let* adv = int_range 0 (Array.length unauth_adversaries - 1) in
    let* placement = int_range 0 (Array.length placements - 1) in
    let* budget = int_range 0 (2 * n) in
    return (n, t, f, seed, adv, placement, budget))

let setup (n, _t, f, seed, _adv, placement, budget) =
  let rng = Rng.create seed in
  let faulty = random_faulty rng ~n ~f in
  let advice = Gen.generate ~rng ~n ~faulty ~budget placements.(placement) in
  let inputs = Array.init n (fun _ -> Rng.int rng 3) in
  (rng, faulty, advice, inputs)

let prop_wrapper_unauth =
  qcheck ~count:60 ~name:"wrapper-unauth: counted == concrete" diff_gen
    (fun ((n, t, _, _, adv, _, _) as cfg) ->
      let rng, faulty, advice, inputs = setup cfg in
      (* Built once: strategies like adaptive_splitter draw their
         parameters from the rng, so building twice would hand the two
         engines different adversaries. *)
      let adversary = unauth_adversaries.(adv) rng in
      let counted = S.run_unauth ~adversary ~t ~faulty ~inputs ~advice () in
      let concrete =
        S.run_unauth ~adversary ~mode:`Concrete ~t ~faulty ~inputs ~advice ()
      in
      ignore n;
      outcomes_equal counted concrete)

let prop_wrapper_auth =
  qcheck ~count:30 ~name:"wrapper-auth: counted == concrete" diff_gen
    (fun ((n, _, _, _, adv, _, _) as cfg) ->
      let rng, faulty, advice, inputs = setup cfg in
      let t = (n - 1) / 2 in
      let adversary =
        if adv mod 2 = 0 then fun pki -> Adv.prediction_attacker_auth ~pki ~v0:0 ~v1:1
        else fun _pki -> unauth_adversaries.(adv) rng
      in
      let counted, _ = S.run_auth ~adversary ~t ~faulty ~inputs ~advice () in
      let concrete, _ =
        S.run_auth ~adversary ~mode:`Concrete ~t ~faulty ~inputs ~advice ()
      in
      outcomes_equal counted concrete)

let run_baseline ?mode ~n ~faulty ~adversary body =
  S.R.run ?mode ~msg_size:S.W.size_bits ~group_key:S.W.encode_plain ~n ~faulty
    ~adversary body

let prop_dolev_strong =
  qcheck ~count:30 ~name:"dolev-strong: counted == concrete" diff_gen
    (fun ((n, _, _, _, adv, _, _) as cfg) ->
      let rng, faulty, _, inputs = setup cfg in
      let t = (n - 1) / 2 in
      let adversary = unauth_adversaries.(adv) rng in
      let body pki ctx =
        let i = S.R.id ctx in
        Ds.agree ctx ~pki ~key:(Pki.key pki i) ~t ~tag:0 inputs.(i)
      in
      let counted =
        let pki = Pki.create ~n in
        run_baseline ~n ~faulty ~adversary (body pki)
      in
      let concrete =
        let pki = Pki.create ~n in
        run_baseline ~mode:`Concrete ~n ~faulty ~adversary (body pki)
      in
      outcomes_equal counted concrete)

let prop_phase_king =
  qcheck ~count:30 ~name:"phase-king: counted == concrete" diff_gen
    (fun ((n, t, _, _, adv, _, _) as cfg) ->
      let rng, faulty, _, inputs = setup cfg in
      let adversary = unauth_adversaries.(adv) rng in
      let body ctx =
        let gc ctx ~tag v = S.Graded_unauth.run ctx ~t ~tag v in
        Pk.run ctx ~gc ~t ~base_tag:0 inputs.(S.R.id ctx)
      in
      let counted = run_baseline ~n ~faulty ~adversary body in
      let concrete = run_baseline ~mode:`Concrete ~n ~faulty ~adversary body in
      outcomes_equal counted concrete)

let prop_chaos_schedules =
  qcheck ~count:40 ~name:"fuzzed chaos schedules: counted == concrete"
    QCheck2.Gen.(
      let* n = int_range 7 13 in
      let t = (n - 1) / 3 in
      let* f = int_range 1 (max 1 t) in
      let* seed = int_range 0 1_000_000 in
      let* count = int_range 1 8 in
      return (n, t, f, seed, count))
    (fun (n, t, f, seed, count) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let advice = Gen.perfect ~n ~faulty in
      let inputs = Array.init n (fun _ -> Rng.int rng 3) in
      let schedule = Schedule.gen rng ~n ~faulty ~rounds:40 ~count in
      let adversary = Inj.adversary ~mutant:Bap_chaos.Fuzz.mutant schedule in
      let counted = S.run_unauth ~adversary ~t ~faulty ~inputs ~advice () in
      let concrete =
        S.run_unauth ~adversary ~mode:`Concrete ~t ~faulty ~inputs ~advice ()
      in
      outcomes_equal counted concrete)

(* -- arena reuse and delivery-order regression pins -- *)

module IR = Bap_sim.Runtime.Make (struct
  type t = int
end)

(* Messages are tagged with their round; if a cleared arena (or a reused
   counted-path buffer) ever leaked, a stale tag would show up. *)
let no_leak_body rounds ctx =
  let me = IR.id ctx in
  let ok = ref true in
  for r = 1 to rounds do
    let inbox =
      if (me + r) mod 3 = 0 then IR.broadcast ctx ((r * 1000) + me)
      else IR.silent_round ctx
    in
    Inbox.iteri inbox ~f:(fun _ -> List.iter (fun m -> if m / 1000 <> r then ok := false))
  done;
  !ok

let leak_gen =
  QCheck2.Gen.(
    let* n = int_range 2 9 in
    let* f = int_range 0 (max 0 ((n - 1) / 3)) in
    let* seed = int_range 0 1_000_000 in
    let* concrete = bool in
    return (n, f, seed, concrete))

let prop_arena_no_leak =
  qcheck ~count:80 ~name:"arena reuse never leaks a previous round" leak_gen
    (fun (n, f, seed, concrete) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let mode = if concrete then `Concrete else `Auto in
      let outcome =
        IR.run ~mode ~n ~faulty ~adversary:Bap_sim.Adversary.passive
          (no_leak_body 12)
      in
      List.for_all snd (IR.honest_decisions outcome))

(* In round 1 every faulty process sends its puppet's broadcast as
   pairs, then [extra src] more pairs. *)
let appending ~extra =
  {
    Bap_sim.Adversary.name = "appending";
    make =
      (fun ~n ~faulty:_ view ~src outbox ->
        match outbox with
        | Bap_sim.Adversary.Broadcast msgs when view.Bap_sim.Adversary.round = 1 ->
          let own = List.concat (List.init n (fun dst -> List.map (fun m -> (dst, m)) msgs)) in
          Bap_sim.Adversary.Pairs (own @ extra src)
        | _ -> outbox);
  }

let test_inject_order mode () =
  (* A recipient gets a faulty sender's pairs in list order, whatever
     other recipients' pairs sit between them: the puppet's broadcast
     first, then the extras — pinned so D003-style reordering can't
     creep in. *)
  let extra src = if src = 2 then [ (0, 10); (1, 30); (0, 11); (0, 12) ] else [ (0, 20) ] in
  let outcome =
    IR.run ~mode ~n:5 ~faulty:[| 2; 3 |] ~adversary:(appending ~extra)
      (fun ctx ->
        let inbox = IR.broadcast ctx (100 + IR.id ctx) in
        (Inbox.get inbox 2, Inbox.get inbox 3))
  in
  let got i =
    match outcome.IR.decisions.(i) with Some d -> d | None -> Alcotest.fail "no decision"
  in
  let from2, from3 = got 0 in
  Alcotest.(check (list int)) "broadcast then pairs, in order" [ 102; 10; 11; 12 ] from2;
  Alcotest.(check (list int)) "second faulty sender" [ 103; 20 ] from3;
  Alcotest.(check (list int)) "another recipient's pair" [ 102; 30 ] (fst (got 1));
  Alcotest.(check (list int)) "bystander got only the broadcast" [ 102 ] (fst (got 4))

(* k pairs from one faulty source to one recipient in one round: both
   engines deliver the puppet's broadcast, then the pairs in list
   order. The counted engine lays each sender's pairs out once, so its
   allocation is linear in k; appending each message to the slot made
   it quadratic (6M minor words at k = 2000). *)
let test_many_injections_linear () =
  let k = 2000 in
  let adversary = appending ~extra:(fun _ -> List.init k (fun j -> (0, 1000 + j))) in
  let run mode =
    IR.run ~mode ~n:5 ~faulty:[| 4 |] ~adversary (fun ctx ->
        Inbox.get (IR.broadcast ctx (100 + IR.id ctx)) 4)
  in
  let expected = 104 :: List.init k (fun j -> 1000 + j) in
  let received (o : _ IR.outcome) =
    match o.IR.decisions.(0) with Some d -> d | None -> Alcotest.fail "no decision"
  in
  Alcotest.(check (list int)) "concrete: broadcast, then pairs in order" expected
    (received (run `Concrete));
  (* The calling domain's own counter: a process snapshot only moves at
     minor collections, a whole minor heap at a time. *)
  let before = Memprobe.domain_minor_words () in
  let counted = run `Auto in
  let words = Memprobe.domain_minor_words () -. before in
  Alcotest.(check (list int)) "counted: broadcast, then pairs in order" expected
    (received counted);
  if words >= float_of_int (100 * k) then
    Alcotest.failf "counted engine allocated %.0f minor words for %d pairs (bound %d)" words k
      (100 * k)

(* An adversary that sends only in odd rounds, muting the puppets:
   rounds alternate between the shared inbox (and its memo) and
   per-recipient inboxes. Each odd round, every faulty process replays
   the lowest honest process's traffic to every recipient with the
   value, the advice bit or the declared set bent by the recipient's
   id; the pairs are built once per round. *)
let odd_round_injector =
  let bend dst = function
    | S.W.Gc_init (tag, v) -> S.W.Gc_init (tag, (v + dst) mod 2)
    | S.W.Gc_echo (tag, v) -> S.W.Gc_echo (tag, (v + dst) mod 2)
    | S.W.King (tag, v) -> S.W.King (tag, (v + dst) mod 2)
    | S.W.Conc (tag, v, l) -> S.W.Conc (tag, (v + dst) mod 2, if dst mod 3 = 0 then [] else l)
    | S.W.Advice a -> S.W.Advice (Advice.flip a (dst mod Advice.length a))
    | m -> m
  in
  {
    Adversary.name = "odd-round-injector";
    make =
      (fun ~n ~faulty ->
        let is_faulty = is_faulty_array ~n faulty in
        let rec lowest_honest i = if is_faulty.(i) then lowest_honest (i + 1) else i in
        let h = lowest_honest 0 in
        fun view ->
          let out =
            if view.Adversary.round mod 2 = 0 then Adversary.mute
            else
              Adversary.Pairs
                (List.concat
                   (List.init n (fun dst ->
                        List.map
                          (fun m -> (dst, bend dst m))
                          (view.Adversary.honest_out ~sender:h ~recipient:dst))))
          in
          fun ~src:_ _outbox -> out);
  }

let test_alternating_paths_large_n () =
  List.iter
    (fun (n, f, seed) ->
      let t = (n - 1) / 3 in
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let advice = Gen.generate ~rng ~n ~faulty ~budget:(2 * n) Gen.Scattered in
      let inputs = Array.init n (fun _ -> Rng.int rng 2) in
      let adversary = odd_round_injector in
      let counted = S.run_unauth ~adversary ~t ~faulty ~inputs ~advice () in
      let concrete = S.run_unauth ~adversary ~mode:`Concrete ~t ~faulty ~inputs ~advice () in
      if counted.S.R.adversary_sent = 0 then Alcotest.failf "n=%d: nothing injected" n;
      if not (outcomes_equal counted concrete) then
        Alcotest.failf "n=%d f=%d seed=%d: counted and concrete outcomes differ" n f seed)
    [ (64, 10, 3); (70, 23, 11) ]

let test_counted_shares_inbox () =
  (* Sanity: with pure broadcasts and no adversary the counted engine
     groups everything — agreement-relevant reads still see all n
     senders. *)
  let outcome =
    IR.run ~n:6 ~faulty:[||] ~adversary:Bap_sim.Adversary.passive (fun ctx ->
        let inbox = IR.broadcast ctx 7 in
        let votes = Inbox.first inbox ~f:(fun m -> Some m) in
        let senders = ref [] in
        Inbox.votes_iteri votes ~f:(fun s _ -> senders := s :: !senders);
        (Inbox.count votes ~eq:Int.equal 7, List.rev !senders))
  in
  Array.iter
    (function
      | Some (c, senders) ->
        Alcotest.(check int) "all senders counted" 6 c;
        Alcotest.(check (list int)) "ascending senders" [ 0; 1; 2; 3; 4; 5 ] senders
      | None -> Alcotest.fail "no decision")
    outcome.IR.decisions

let suite =
  [
    prop_wrapper_unauth;
    prop_wrapper_auth;
    prop_dolev_strong;
    prop_phase_king;
    prop_chaos_schedules;
    prop_arena_no_leak;
    Alcotest.test_case "inject order pinned (concrete)" `Quick
      (test_inject_order `Concrete);
    Alcotest.test_case "inject order pinned (counted)" `Quick (test_inject_order `Auto);
    Alcotest.test_case "counted shares one inbox" `Quick test_counted_shares_inbox;
    Alcotest.test_case "k injections to one slot cost O(k) (counted)" `Quick
      test_many_injections_linear;
    Alcotest.test_case "odd-round injections at n >= 64: counted == concrete" `Quick
      test_alternating_paths_large_n;
  ]
