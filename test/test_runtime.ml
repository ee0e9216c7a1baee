module R = Bap_sim.Runtime.Make (struct
  type t = string
end)

module Adversary = Bap_sim.Adversary
module Inbox = Bap_sim.Inbox
module Trace = Bap_sim.Trace

let run ?(adversary = Adversary.passive) ?max_rounds ?trace ~n ~faulty body =
  R.run ?max_rounds ?trace ~n ~faulty ~adversary body

let test_broadcast_delivery () =
  let outcome =
    run ~n:4 ~faulty:[||] (fun ctx ->
        let inbox = R.broadcast ctx (Printf.sprintf "from-%d" (R.id ctx)) in
        List.init (R.n ctx) (fun s -> List.length (Inbox.get inbox s)))
  in
  Array.iter
    (function
      | Some counts -> Alcotest.(check (list int)) "one msg from everyone" [ 1; 1; 1; 1 ] counts
      | None -> Alcotest.fail "no decision")
    outcome.R.decisions

let test_self_delivery_not_counted () =
  let outcome = run ~n:5 ~faulty:[||] (fun ctx -> ignore (R.broadcast ctx "x")) in
  Alcotest.(check int) "n*(n-1) messages" (5 * 4) outcome.R.honest_sent;
  Alcotest.(check (array int)) "received per process" (Array.make 5 4)
    outcome.R.honest_received

let test_lockstep_rounds () =
  let outcome =
    run ~n:3 ~faulty:[||] (fun ctx ->
        let r1 = R.round ctx in
        ignore (R.silent_round ctx);
        let r2 = R.round ctx in
        ignore (R.silent_round ctx);
        (r1, r2, R.round ctx))
  in
  Array.iter
    (function
      | Some (r1, r2, r3) ->
        Alcotest.(check (list int)) "rounds advance" [ 0; 1; 2 ] [ r1; r2; r3 ]
      | None -> Alcotest.fail "no decision")
    outcome.R.decisions;
  Alcotest.(check int) "two rounds total" 2 outcome.R.rounds

let test_immediate_return () =
  let outcome = run ~n:3 ~faulty:[||] (fun ctx -> R.id ctx * 10) in
  Alcotest.(check int) "zero rounds" 0 outcome.R.rounds;
  Alcotest.(check (array int)) "decided at round 0" [| 0; 0; 0 |] outcome.R.decision_round

let test_staggered_return () =
  let outcome =
    run ~n:4 ~faulty:[||] (fun ctx ->
        R.skip ctx (R.id ctx);
        R.id ctx)
  in
  Alcotest.(check int) "last return" 3 outcome.R.rounds;
  Alcotest.(check (array int)) "per-process return rounds" [| 0; 1; 2; 3 |]
    outcome.R.decision_round

let test_max_rounds () =
  Alcotest.check_raises "limit" (R.Round_limit_exceeded 5) (fun () ->
      ignore
        (run ~max_rounds:5 ~n:2 ~faulty:[||] (fun ctx ->
             while true do
               ignore (R.silent_round ctx)
             done)))

let test_silent_adversary_mutes () =
  let outcome =
    run ~n:4 ~faulty:[| 0 |] ~adversary:Adversary.silent (fun ctx ->
        let inbox = R.broadcast ctx "hi" in
        List.length (Inbox.get inbox 0))
  in
  List.iter
    (fun (_, from_faulty) -> Alcotest.(check int) "nothing from faulty" 0 from_faulty)
    (R.honest_decisions outcome);
  Alcotest.(check int) "adversary sent nothing" 0 outcome.R.adversary_sent

let test_passive_adversary_follows () =
  let outcome =
    run ~n:4 ~faulty:[| 0 |] ~adversary:Adversary.passive (fun ctx ->
        let inbox = R.broadcast ctx "hi" in
        List.length (Inbox.get inbox 0))
  in
  List.iter
    (fun (_, from_faulty) -> Alcotest.(check int) "puppet message arrives" 1 from_faulty)
    (R.honest_decisions outcome)

(* A scripted adversary: every faulty process sends [sends view ~src]
   in place of its puppet's outbox. *)
let scripted name sends =
  { Adversary.name; make = (fun ~n:_ ~faulty:_ view ~src _outbox -> sends view ~src) }

let test_inject_dst_out_of_range () =
  (* Previously dropped silently; now a loud error, on either engine. *)
  let bad = scripted "bad" (fun _view ~src:_ -> Adversary.Pairs [ (-1, "lost") ]) in
  List.iter
    (fun mode ->
      Alcotest.check_raises "out-of-range destination rejected"
        (Invalid_argument
           "Runtime.run: adversary sent to out-of-range destination -1 (round 1)")
        (fun () ->
          ignore
            (R.run ~mode ~n:3 ~faulty:[| 2 |] ~adversary:bad (fun ctx -> R.silent_round ctx))))
    [ `Auto; `Concrete ]

let test_network_hook () =
  (* Drop edge 0 -> 1 in round 1, duplicate edge 0 -> 2; self-deliveries
     and other edges untouched. Metrics must reflect post-hook traffic. *)
  let network ~round ~src ~dst msgs =
    if round = 1 && src = 0 && dst = 1 then []
    else if round = 1 && src = 0 && dst = 2 then msgs @ msgs
    else msgs
  in
  let outcome =
    R.run ~network ~n:3 ~faulty:[||] ~adversary:Adversary.passive (fun ctx ->
        let inbox = R.broadcast ctx "x" in
        List.length (Inbox.get inbox 0))
  in
  Alcotest.(check (list (pair int int)))
    "per-process deliveries from p0"
    [ (0, 1); (1, 0); (2, 2) ]
    (R.honest_decisions outcome);
  (* p0: 1 (to p2 doubled... dropped to p1) -> 0 + 2 = 2; p1, p2: 2 each. *)
  Alcotest.(check int) "accounting is post-hook" 6 outcome.R.honest_sent

let test_compose_adversaries () =
  (* First stage rewrites the broadcast, keeping its order, second stage
     drops to one recipient: both effects visible, applied left to
     right. *)
  let upcase =
    {
      Adversary.name = "upcase";
      make =
        (fun ~n:_ ~faulty:_ _view ~src:_ ->
          Adversary.concat_map (fun m -> [ String.uppercase_ascii m ]));
    }
  in
  let drop_to_0 =
    Adversary.rewrite "drop0" (fun _view ~src:_ ~dst m -> if dst = 0 then [] else [ m ])
  in
  let outcome =
    run ~n:3 ~faulty:[| 1 |]
      ~adversary:(Adversary.compose [ upcase; drop_to_0 ])
      (fun ctx ->
        let inbox = R.broadcast_list ctx [ "hi"; "yo" ] in
        Inbox.get inbox 1)
  in
  Alcotest.(check (list string)) "dropped for p0" []
    (List.assoc 0 (R.honest_decisions outcome));
  Alcotest.(check (list string)) "rewritten for p2" [ "HI"; "YO" ]
    (List.assoc 2 (R.honest_decisions outcome))

let test_inject_delivery () =
  let chatty =
    scripted "chatty" (fun view ~src:_ ->
        if view.Adversary.round = 1 then Adversary.Pairs [ (0, "boo") ] else Adversary.mute)
  in
  let outcome =
    run ~n:3 ~faulty:[| 2 |] ~adversary:chatty (fun ctx ->
        let inbox = R.silent_round ctx in
        Inbox.get inbox 2)
  in
  Alcotest.(check (list string)) "victim got it"
    [ "boo" ]
    (List.assoc 0 (R.honest_decisions outcome));
  Alcotest.(check (list string)) "bystander did not" []
    (List.assoc 1 (R.honest_decisions outcome));
  Alcotest.(check int) "counted as adversary msg" 1 outcome.R.adversary_sent

let test_rewrite_adversary () =
  (* Each message is rewritten per recipient, in the puppet's order. *)
  let split =
    Adversary.rewrite "split" (fun _view ~src:_ ~dst m ->
        [ Printf.sprintf "%s%d" m dst; String.uppercase_ascii m ])
  in
  let outcome =
    run ~n:3 ~faulty:[| 1 |] ~adversary:split (fun ctx ->
        let inbox = R.broadcast_list ctx [ "a"; "b" ] in
        Inbox.get inbox 1)
  in
  Alcotest.(check (list string)) "rewritten for p0" [ "a0"; "A"; "b0"; "B" ]
    (List.assoc 0 (R.honest_decisions outcome));
  Alcotest.(check (list string)) "rewritten for p2" [ "a2"; "A"; "b2"; "B" ]
    (List.assoc 2 (R.honest_decisions outcome))

let test_rushing_adversary_sees_current_round () =
  (* The adversary echoes back the exact message an honest process sends
     in the same round: only possible for a rushing adversary. *)
  let mirror =
    scripted "mirror" (fun view ~src:_ ->
        match view.Adversary.honest_out ~sender:0 ~recipient:1 with
        | m :: _ -> Adversary.Pairs [ (1, "saw:" ^ m) ]
        | [] -> Adversary.mute)
  in
  let outcome =
    run ~n:3 ~faulty:[| 2 |] ~adversary:mirror (fun ctx ->
        let inbox = R.broadcast ctx (Printf.sprintf "r%d-p%d" (R.round ctx + 1) (R.id ctx)) in
        Inbox.get inbox 2)
  in
  Alcotest.(check (list string)) "echo of same-round message" [ "saw:r1-p0" ]
    (List.assoc 1 (R.honest_decisions outcome))

(* The adversary's contract: its view stage runs once per round and
   its sender stage once per faulty process per round, on either
   engine, whatever the puppets send (broadcasts, pairs, or nothing
   once they return). *)
let test_one_step_per_round () =
  let rounds = 5 and faulty = [| 1; 3; 4 |] in
  List.iter
    (fun mode ->
      let views = ref 0 and senders = ref 0 in
      let counting =
        {
          Adversary.name = "counting";
          make =
            (fun ~n:_ ~faulty:_ _view ->
              incr views;
              fun ~src:_ outbox ->
                incr senders;
                outbox);
        }
      in
      let outcome =
        R.run ~mode ~n:6 ~faulty ~adversary:counting (fun ctx ->
            (* Puppet 3 goes quiet after round 2, puppet 4 returns after
               round 3. *)
            let last = if R.id ctx = 4 then 3 else rounds in
            for r = 1 to last do
              if R.id ctx = 3 && r > 2 then ignore (R.silent_round ctx)
              else if r mod 2 = 0 then ignore (R.send_to ctx [ ((R.id ctx + 1) mod 6, "p") ])
              else ignore (R.broadcast ctx "b")
            done)
      in
      let name = match mode with `Auto -> "auto" | `Concrete -> "concrete" in
      Alcotest.(check int) (name ^ ": rounds") rounds outcome.R.rounds;
      Alcotest.(check int) (name ^ ": one view stage per round") rounds !views;
      Alcotest.(check int) (name ^ ": one sender stage per faulty process per round")
        (rounds * Array.length faulty) !senders)
    [ `Auto; `Concrete ]

let test_per_round_counts () =
  let outcome =
    run ~n:3 ~faulty:[||] (fun ctx ->
        ignore (R.broadcast ctx "a");
        ignore (R.silent_round ctx);
        ignore (R.broadcast ctx "b"))
  in
  Alcotest.(check (array int)) "per round" [| 6; 0; 6 |] outcome.R.honest_per_round;
  Alcotest.(check int) "total" 12 outcome.R.honest_sent

let test_send_to_sparse () =
  (* Process 0 sends two pairs to 2 (in send order), one to itself and
     one to each of the ids n and -1, which name no process. *)
  let pairs = [ (2, "direct"); (4, "past-n"); (2, "second"); (-1, "negative"); (0, "self") ] in
  List.iter
    (fun mode ->
      let name = match mode with `Auto -> "auto" | `Concrete -> "concrete" in
      let outcome =
        R.run ~mode ~n:4 ~faulty:[||] ~adversary:Adversary.passive (fun ctx ->
            let inbox = if R.id ctx = 0 then R.send_to ctx pairs else R.silent_round ctx in
            Inbox.get inbox 0)
      in
      let got i = outcome.R.decisions.(i) in
      Alcotest.(check (option (list string)))
        (name ^ ": recipient got both, in send order")
        (Some [ "direct"; "second" ])
        (got 2);
      Alcotest.(check (option (list string))) (name ^ ": others got none") (Some []) (got 1);
      Alcotest.(check (option (list string))) (name ^ ": others got none") (Some []) (got 3);
      Alcotest.(check (option (list string))) (name ^ ": self delivered") (Some [ "self" ]) (got 0);
      Alcotest.(check int) (name ^ ": two messages") 2 outcome.R.honest_sent;
      Alcotest.(check (array int)) (name ^ ": received") [| 0; 0; 2; 0 |]
        outcome.R.honest_received)
    [ `Auto; `Concrete ]

let test_trace_records () =
  let trace = Trace.create () in
  ignore
    (run ~n:2 ~faulty:[||] ~trace (fun ctx -> ignore (R.broadcast ctx "x")));
  let events = Trace.events trace in
  let rounds = List.length (List.filter (function Trace.Round_begin _ -> true | _ -> false) events) in
  let delivers = List.length (List.filter (function Trace.Deliver _ -> true | _ -> false) events) in
  let decides = List.length (List.filter (function Trace.Decide _ -> true | _ -> false) events) in
  Alcotest.(check int) "one round" 1 rounds;
  Alcotest.(check int) "four deliveries (incl self)" 4 delivers;
  Alcotest.(check int) "two decisions" 2 decides

let test_trace_round_ends_balanced () =
  let trace = Trace.create () in
  ignore
    (run ~n:3 ~faulty:[||] ~trace (fun ctx ->
         ignore (R.broadcast ctx "a");
         ignore (R.broadcast ctx "b")));
  let events = Trace.events trace in
  let count p = List.length (List.filter p events) in
  let begins = count (function Trace.Round_begin _ -> true | _ -> false) in
  let ends = count (function Trace.Round_end _ -> true | _ -> false) in
  Alcotest.(check int) "two rounds" 2 begins;
  Alcotest.(check int) "every round closed" begins ends

let test_honest_decisions_excludes_faulty () =
  let outcome = run ~n:4 ~faulty:[| 1; 3 |] (fun ctx -> R.id ctx) in
  Alcotest.(check (list (pair int int))) "only honest" [ (0, 0); (2, 2) ]
    (R.honest_decisions outcome)

let test_faulty_id_out_of_range () =
  Alcotest.check_raises "checked" (Invalid_argument "Runtime.run: faulty id out of range")
    (fun () -> ignore (run ~n:3 ~faulty:[| 5 |] (fun _ -> ())))

let suite =
  [
    Alcotest.test_case "broadcast delivers to everyone" `Quick test_broadcast_delivery;
    Alcotest.test_case "self delivery not counted" `Quick test_self_delivery_not_counted;
    Alcotest.test_case "lockstep round numbering" `Quick test_lockstep_rounds;
    Alcotest.test_case "immediate return" `Quick test_immediate_return;
    Alcotest.test_case "staggered returns" `Quick test_staggered_return;
    Alcotest.test_case "round limit enforced" `Quick test_max_rounds;
    Alcotest.test_case "silent adversary mutes puppets" `Quick test_silent_adversary_mutes;
    Alcotest.test_case "passive adversary follows protocol" `Quick
      test_passive_adversary_follows;
    Alcotest.test_case "inject to out-of-range destination rejected" `Quick
      test_inject_dst_out_of_range;
    Alcotest.test_case "network hook perturbs edges" `Quick test_network_hook;
    Alcotest.test_case "compose chains adversaries" `Quick test_compose_adversaries;
    Alcotest.test_case "inject delivers to target only" `Quick test_inject_delivery;
    Alcotest.test_case "rewrite adversary transforms" `Quick test_rewrite_adversary;
    Alcotest.test_case "adversary is rushing" `Quick test_rushing_adversary_sees_current_round;
    Alcotest.test_case "adversary steps once per round and sender" `Quick
      test_one_step_per_round;
    Alcotest.test_case "per-round message counts" `Quick test_per_round_counts;
    Alcotest.test_case "sparse send_to" `Quick test_send_to_sparse;
    Alcotest.test_case "trace records events" `Quick test_trace_records;
    Alcotest.test_case "trace round begins/ends balanced" `Quick
      test_trace_round_ends_balanced;
    Alcotest.test_case "honest_decisions excludes faulty" `Quick
      test_honest_decisions_excludes_faulty;
    Alcotest.test_case "faulty ids validated" `Quick test_faulty_id_out_of_range;
  ]
