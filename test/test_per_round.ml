(* Work the counted engine does once per round instead of once per
   recipient: derivations memoized on the one inbox it shares, and the
   on_round hook every served family runs under. *)

open Helpers
module Inbox = Bap_sim.Inbox
module Instance = Bap_servelib.Instance

let n = 400
let t = (n - 1) / 3
let faulty = Array.init (t / 2) Fun.id
let rounds = 6

let is_honest i = i >= Array.length faulty

(* One classification round, one graded consensus, then [rounds]
   broadcast rounds whose tally, [expect] votes, is memoized under a
   test key that counts its runs per round. *)
let tally_key : (int, int) Inbox.key = Inbox.key ()

let body ~advice ~expect ~runs ~calls ctx =
  let i = S.R.id ctx in
  let c = S.Classify_p.run ctx advice.(i) in
  let gc = S.Graded_unauth.run ctx ~t ~tag:1 1 in
  for r = 1 to rounds do
    let inbox = S.R.broadcast ctx (S.W.Gc_init (100 + r, 1)) in
    calls.(r) <- calls.(r) + 1;
    let tally =
      Inbox.memo inbox tally_key ~eq:Int.equal r (fun inbox r ->
          runs.(r) <- runs.(r) + 1;
          Inbox.count
            (Inbox.first inbox ~f:(function
              | S.W.Gc_init (tag, v) when tag = 100 + r -> Some v
              | _ -> None))
            ~eq:Int.equal 1)
    in
    if tally <> expect then Alcotest.failf "round %d: tally %d" r tally
  done;
  (c, gc)

(* Two adversaries, each with the tally the honest processes see:
   silent puppets send nothing; the advice liar's puppets broadcast a
   lie in the advice round and follow the protocol after it, so they
   vote too. *)
let silent = ("silent", Adversary.silent, n - Array.length faulty)
let liar = ("advice-liar", Adv.advice_liar, n)

let run_with ?mode (_, adversary, expect) =
  let rng = Rng.create 5 in
  let advice = Gen.generate ~rng ~n ~faulty ~budget:n Gen.Uniform in
  let runs = Array.make (rounds + 1) 0 and calls = Array.make (rounds + 1) 0 in
  let o =
    S.R.run ?mode ~grouping:S.grouping ~n ~faulty ~adversary
      (body ~advice ~expect ~runs ~calls)
  in
  let results =
    List.filter_map
      (fun i -> if is_honest i then o.S.R.decisions.(i) else None)
      (List.init n Fun.id)
  in
  (results, runs, calls)

let test_shared_memo () =
  List.iter
    (fun ((name, _, _) as input) ->
      let results, runs, calls = run_with input in
      Alcotest.(check int) (name ^ ": every honest process returned") (n - Array.length faulty)
        (List.length results);
      let c0, gc0 = List.hd results in
      List.iter
        (fun (c, gc) ->
          if not (c == c0) then Alcotest.failf "%s: classifications are not one shared vector" name;
          if not (gc == gc0) then Alcotest.failf "%s: graded-consensus outcomes are not shared" name)
        results;
      for r = 1 to rounds do
        Alcotest.(check int) (Printf.sprintf "%s, round %d: every process asked" name r) n calls.(r);
        Alcotest.(check int) (Printf.sprintf "%s, round %d: one thunk run" name r) 1 runs.(r)
      done)
    [ silent; liar ]

let test_concrete_shares_nothing () =
  (* The reference engine hands every recipient its own inbox: the same
     results, computed once per recipient. *)
  let shared, _, _ = run_with silent in
  let results, runs, _ = run_with ~mode:`Concrete silent in
  List.iter2
    (fun (c, gc) (c', gc') ->
      if not (Advice.equal c c' && gc = gc') then Alcotest.fail "engines disagree")
    shared results;
  for r = 1 to rounds do
    Alcotest.(check int) (Printf.sprintf "round %d: one run per recipient" r) n runs.(r)
  done

(* -- the memo itself: one run per (key, argument) on a shared inbox -- *)

let test_memo_per_key_and_argument () =
  let groups = [| ([ 7 ], Bap_sim.Bitset.of_list 4 [ 0; 1; 2; 3 ]) |] in
  let shared = Inbox.shared ~n:4 ~groups ~direct:[||] in
  let unshared = Inbox.counted ~n:4 ~groups ~direct:[||] in
  let key_a : (int, int list) Inbox.key = Inbox.key () in
  let key_b : (int, int list) Inbox.key = Inbox.key () in
  let runs = ref 0 in
  let derive key inbox x =
    Inbox.memo inbox key ~eq:Int.equal x (fun inbox x ->
        incr runs;
        [ x; Inbox.size inbox ])
  in
  let a1 = derive key_a shared 1 in
  Alcotest.(check bool) "same key and argument: the kept result" true
    (a1 == derive key_a shared 1);
  Alcotest.(check (list int)) "another argument: its own result" [ 2; 4 ] (derive key_a shared 2);
  Alcotest.(check (list int)) "another key: its own result" [ 1; 4 ] (derive key_b shared 1);
  Alcotest.(check int) "one run per (key, argument)" 3 !runs;
  runs := 0;
  ignore (derive key_a unshared 1);
  ignore (derive key_a unshared 1);
  Alcotest.(check int) "an unshared inbox computes every time" 2 !runs

(* Processes of one shared round that pass different arguments: two
   listening sets split by parity, each seeing a different majority.
   Sharing a result across them would show against the concrete
   engine. *)
let test_memo_distinct_arguments_in_one_round () =
  let n = 13 and k = 2 in
  let evens = [ 0; 2; 4; 6; 8; 10; 12 ] and odds = [ 1; 3; 5; 7; 9; 11; 0 ] in
  let body ctx =
    let i = S.R.id ctx in
    let l_set = if i mod 2 = 0 then evens else odds in
    S.Graded_core_set.run ctx ~k ~l_set ~tag:0 (if i mod 2 = 0 then 1 else 0)
  in
  let run mode =
    (S.R.run ~mode ~grouping:S.grouping ~n ~faulty:[||] ~adversary:Adversary.passive body)
      .S.R.decisions
  in
  let counted = run `Auto and concrete = run `Concrete in
  Alcotest.(check bool) "the two sets decide differently" true
    (counted.(0) <> counted.(1));
  Alcotest.(check bool) "counted == concrete" true (counted = concrete)

(* -- on_round: once per round for every served family -- *)

let families = [ Instance.Unauth; Instance.Auth; Instance.Es; Instance.Pk ]

let spec family = { Instance.id = 0; family; n = 7; f = 1; m = 1; seed = 3 }

let test_hook_once_per_round () =
  List.iter
    (fun family ->
      let name = Instance.family_name family in
      let seen = ref [] in
      let m = Instance.execute ~on_round:(fun r -> seen := r :: !seen) (spec family) in
      Alcotest.(check (list int))
        (name ^ ": hook saw rounds 1..rounds, once each")
        (List.init m.Instance.rounds (fun r -> r + 1))
        (List.rev !seen);
      Alcotest.(check bool) (name ^ ": same metrics as the default hook") true
        (m = Instance.execute (spec family)))
    families

exception Cancelled of int

let test_hook_exception_aborts () =
  List.iter
    (fun family ->
      let calls = ref 0 in
      let hook r =
        incr calls;
        if r = 3 then raise (Cancelled r)
      in
      Alcotest.check_raises
        (Instance.family_name family ^ ": the hook's exception ends the run")
        (Cancelled 3)
        (fun () -> ignore (Instance.execute ~on_round:hook (spec family)));
      Alcotest.(check int) (Instance.family_name family ^ ": no round after it") 3 !calls)
    families

let suite =
  [
    Alcotest.test_case "n=400 shared inbox: one run per round, one vector" `Quick
      test_shared_memo;
    Alcotest.test_case "concrete inboxes compute per recipient" `Quick
      test_concrete_shares_nothing;
    Alcotest.test_case "memo: one run per key and argument" `Quick
      test_memo_per_key_and_argument;
    Alcotest.test_case "memo: distinct arguments in one shared round" `Quick
      test_memo_distinct_arguments_in_one_round;
    Alcotest.test_case "on_round runs once per round (all families)" `Quick
      test_hook_once_per_round;
    Alcotest.test_case "on_round exception aborts the run (all families)" `Quick
      test_hook_exception_aborts;
  ]
