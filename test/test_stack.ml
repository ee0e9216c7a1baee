(* Harness-level behaviour of Stack.Make: argument validation, metric
   helpers, value-domain genericity. *)

open Helpers
module Gen = Bap_prediction.Gen

let test_check_args_advice_length () =
  Alcotest.check_raises "advice length"
    (Invalid_argument "Stack: advice length <> inputs length") (fun () ->
      ignore
        (S.run_unauth ~t:1 ~faulty:[||] ~inputs:(Array.make 4 0)
           ~advice:(Array.make 3 (Advice.make 4 true))
           ()))

let test_check_args_faulty_count () =
  Alcotest.check_raises "too many faulty"
    (Invalid_argument "Stack: more faulty processes than t") (fun () ->
      ignore
        (S.run_unauth ~t:1 ~faulty:[| 0; 1 |] ~inputs:(Array.make 7 0)
           ~advice:(Array.make 7 (Advice.make 7 true))
           ()))

let test_decision_round_le_rounds () =
  let n = 10 and t = 3 in
  let faulty = [| 0 |] in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.init n (fun i -> i mod 2) in
  let o = S.run_unauth ~t ~faulty ~inputs ~advice () in
  Alcotest.(check bool) "decided before returning" true
    (S.decision_round o <= o.S.R.rounds && S.decision_round o > 0)

let test_auth_returns_usable_pki () =
  let n = 7 and t = 2 in
  let faulty = [| 0 |] in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.make n 5 in
  let o, pki = S.run_auth ~t ~faulty ~inputs ~advice () in
  Alcotest.(check bool) "agreement" true (S.agreement o);
  Alcotest.(check int) "pki size" n (Pki.n pki)

let test_string_stack () =
  let module VS = Bap_core.Value.String in
  let module SS = Bap_core.Stack.Make (VS) in
  let n = 7 and t = 2 in
  let faulty = [| 1 |] in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.init n (fun i -> if i mod 2 = 0 then "alpha" else "beta") in
  let o = SS.run_unauth ~t ~faulty ~inputs ~advice () in
  Alcotest.(check bool) "agreement over strings" true (SS.agreement o);
  match SS.R.honest_decisions o with
  | (_, r) :: _ ->
    Alcotest.(check bool) "decision is an input" true
      (List.mem r.SS.Wrapper.value [ "alpha"; "beta" ])
  | [] -> Alcotest.fail "no decisions"

let test_bool_stack () =
  let module VB = Bap_core.Value.Bool in
  let module SB = Bap_core.Stack.Make (VB) in
  let n = 7 and t = 2 in
  let faulty = [||] in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.make n true in
  let o = SB.run_unauth ~t ~faulty ~inputs ~advice () in
  Alcotest.(check bool) "validity over bools" true
    (SB.unanimous_validity ~inputs ~faulty o)

let test_messages_by_component_auth () =
  let n = 9 and t = 3 in
  let faulty = [| 0 |] in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.init n (fun i -> i mod 2) in
  let o, pki = S.run_auth ~t ~faulty ~inputs ~advice () in
  let cfg = S.auth_config ~pki ~key:(Pki.key pki 0) ~t () in
  let by = S.messages_by_component cfg ~t o in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 by in
  Alcotest.(check int) "partition" o.S.R.honest_sent total

(* The per-component totals come out of a Hashtbl fold; the stack must
   sort the (label, count) rows so the attribution is a reproducible
   value, not an artifact of hashing. Pin the order and stability. *)
let test_messages_by_component_order () =
  let n = 9 and t = 3 in
  let faulty = [| 0 |] in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.init n (fun i -> i mod 2) in
  let attribute () =
    let o, pki = S.run_auth ~t ~faulty ~inputs ~advice () in
    let cfg = S.auth_config ~pki ~key:(Pki.key pki 0) ~t () in
    S.messages_by_component cfg ~t o
  in
  let by1 = attribute () and by2 = attribute () in
  Alcotest.(check (list (pair string int)))
    "rows in label order" (List.sort compare by1) by1;
  Alcotest.(check (list (pair string int))) "same run, same rows" by1 by2

let test_wrapper_rounds_formula () =
  (* The run never exceeds the wrapper's static round bound. *)
  let n = 13 and t = 4 in
  let faulty = Array.init t Fun.id in
  let rng = Rng.create 3 in
  let advice = Gen.generate ~rng ~n ~faulty ~budget:(n * n) Gen.All_wrong in
  let inputs = Array.init n (fun i -> i mod 2) in
  let o =
    S.run_unauth ~t ~faulty ~inputs ~advice
      ~adversary:(Adv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun r -> -r))
      ()
  in
  let cfg = S.unauth_config ~t in
  Alcotest.(check bool) "bounded by schedule" true
    (o.S.R.rounds <= S.Wrapper.rounds cfg ~t);
  Alcotest.(check bool) "agreement" true (S.agreement o)

let suite =
  [
    Alcotest.test_case "advice length validated" `Quick test_check_args_advice_length;
    Alcotest.test_case "faulty count validated" `Quick test_check_args_faulty_count;
    Alcotest.test_case "decision round within run" `Quick test_decision_round_le_rounds;
    Alcotest.test_case "auth harness returns pki" `Quick test_auth_returns_usable_pki;
    Alcotest.test_case "string-valued stack" `Quick test_string_stack;
    Alcotest.test_case "bool-valued stack" `Quick test_bool_stack;
    Alcotest.test_case "auth message attribution partitions" `Quick
      test_messages_by_component_auth;
    Alcotest.test_case "message attribution order is deterministic" `Quick
      test_messages_by_component_order;
    Alcotest.test_case "runs bounded by wrapper schedule" `Quick test_wrapper_rounds_formula;
  ]
