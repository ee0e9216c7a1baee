(* Message-level verification of the conciliation leader-graph logic
   (Algorithm 4, lines 2-5): handcrafted rounds in which the faulty
   senders craft specific Conc messages, checked against hand-computed
   minima and pluralities. These pin the exact graph semantics the
   Section 7 lemmas rely on: edges (y, z) iff y is in z's declared set,
   sources qualify iff self-listed, minima flow along reverse paths. *)

open Helpers
module W = S.W

(* Drive a single conciliation round where the faulty process sends a
   custom Conc (or nothing) per recipient. *)
let run_conciliation ~n ~l_sets ~inputs ~faulty_msg =
  let adversary =
    Bap_sim.Adversary.
      {
        name = "scripted";
        make =
          (fun ~n ~faulty:_ _view ~src:_ _outbox ->
            Pairs
              (List.concat
                 (List.init n (fun dst -> List.map (fun m -> (dst, m)) (faulty_msg dst)))));
      }
  in
  let outcome =
    run_protocol ~adversary ~n ~faulty:[| 0 |] (fun ctx ->
        let i = S.R.id ctx in
        S.Conciliate.run ctx ~l_set:l_sets.(i) ~tag:9 inputs.(i))
  in
  S.R.honest_decisions outcome

let test_min_flows_through_graph () =
  (* n = 5, L = {1,2,3,4} for everyone (all honest, k has no role at the
     message level). Inputs 9,8,7,6: minimum 6 must win everywhere. *)
  let n = 5 in
  let l = [ 1; 2; 3; 4 ] in
  let l_sets = Array.make n l in
  let inputs = [| 0; 9; 8; 7; 6 |] in
  let decisions = run_conciliation ~n ~l_sets ~inputs ~faulty_msg:(fun _ -> []) in
  List.iter (fun (_, v) -> Alcotest.(check int) "minimum wins" 6 v) decisions

let test_unlisted_sources_do_not_count () =
  (* Process 4 holds the minimum but is not in anyone's L set and its own
     declared set is its L (without itself), so it does not qualify: the
     minimum among qualified sources is 7. *)
  let n = 5 in
  let l_sets = [| [ 1; 2; 3 ]; [ 1; 2; 3 ]; [ 1; 2; 3 ]; [ 1; 2; 3 ]; [ 1; 2; 3 ] |] in
  let inputs = [| 0; 9; 8; 7; 1 |] in
  let decisions = run_conciliation ~n ~l_sets ~inputs ~faulty_msg:(fun _ -> []) in
  List.iter
    (fun (_, v) -> Alcotest.(check int) "non-member minimum ignored" 7 v)
    decisions

let test_faulty_selective_reveal_splits () =
  (* The faulty process 0 declares itself its own leader set and reveals
     a below-domain value only to even recipients: their minima absorb
     it while odd recipients never see it - the divergence the
     adaptive splitter exploits, and exactly what the honest-L-condition
     of Lemma 13 excludes. *)
  let n = 5 in
  let l = [ 0; 1; 2; 3 ] in
  let l_sets = Array.make n l in
  let inputs = [| 0; 9; 8; 7; 6 |] in
  let faulty_msg dst = if dst mod 2 = 0 then [ W.Conc (9, -100, [ 0 ]) ] else [] in
  let decisions = run_conciliation ~n ~l_sets ~inputs ~faulty_msg in
  List.iter
    (fun (i, v) ->
      if i mod 2 = 0 then Alcotest.(check int) "even sees junk" (-100) v
      else Alcotest.(check int) "odd sees honest min" 7 v)
    decisions

let test_declared_set_defines_edges () =
  (* Process 1 declares only itself: its value cannot flow to other
     vertices, but it is in everyone's L and self-listed, so m[1] is its
     own value, while m[2], m[3] see only each other's. *)
  let n = 4 in
  let l_sets = [| [ 1; 2; 3 ]; [ 1 ]; [ 2; 3 ]; [ 2; 3 ] |] in
  let inputs = [| 0; 1; 5; 4 |] in
  let decisions = run_conciliation ~n ~l_sets ~inputs ~faulty_msg:(fun _ -> []) in
  (* Multiset of minima over T cap L for an honest observer with
     L = {1,2,3} (observer 0 is the faulty slot; observers 2 and 3 have
     L = {2,3}): for observer with L={2,3}: m[2] = m[3] = min(5,4) = 4. *)
  List.iter
    (fun (i, v) ->
      if i >= 2 then Alcotest.(check int) "component minimum" 4 v)
    decisions

let test_out_of_range_declared_ids_dropped () =
  (* A faulty sender whose declared set names ids outside [0, n) (here n
     and -1) adds no edge for them: the run is the one in which those
     ids are dropped, and every honest process still decides. *)
  let n = 5 in
  let l_sets = Array.make n [ 0; 1; 2; 3 ] in
  let inputs = [| 0; 9; 8; 7; 6 |] in
  let run declared =
    run_conciliation ~n ~l_sets ~inputs ~faulty_msg:(fun _ -> [ W.Conc (9, 3, declared) ])
  in
  let junk = run [ 0; n; -1 ] and dropped = run [ 0 ] in
  Alcotest.(check int) "every honest process decides" (n - 1) (List.length junk);
  Alcotest.(check (list (pair int int))) "same as the junk-free run" dropped junk;
  List.iter (fun (_, v) -> Alcotest.(check int) "faulty minimum flows" 3 v) junk

let suite =
  [
    Alcotest.test_case "minimum flows through the graph" `Quick test_min_flows_through_graph;
    Alcotest.test_case "unlisted sources do not count" `Quick
      test_unlisted_sources_do_not_count;
    Alcotest.test_case "selective reveal splits minima" `Quick
      test_faulty_selective_reveal_splits;
    Alcotest.test_case "declared sets define the edges" `Quick
      test_declared_set_defines_edges;
    Alcotest.test_case "out-of-range declared ids are dropped" `Quick
      test_out_of_range_declared_ids_dropped;
  ]
