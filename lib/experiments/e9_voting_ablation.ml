(* E9 (ablation of the paper's "first key ingredient", Section 6): what
   happens if processes trust their raw advice instead of running the
   classification vote of Algorithm 2?

   Without the vote, the honest processes' views of who is trustworthy
   diverge by up to B bits instead of O(B/n) processes, so the leader
   blocks of Algorithm 5 stop having common cores and the conditional BA
   stops helping; correctness survives (the wrapper's graded consensus
   protects it) but the decision falls back to the early-stopping path.
   The table compares the divergence metric and the decision round with
   and without the vote, on uniformly scattered errors that the vote
   absorbs completely. *)

open Common
module C = Bap_core.Classification

let divergence ~n ~faulty honest_classifications =
  (* |U M_i| when each process uses the given classification. *)
  let k, _, _ = C.k_counts ~n ~faulty ~honest_classifications in
  k

let plan ?(quick = false) () =
  let n = if quick then 31 else 61 in
  let t = (n - 1) / 3 in
  let f = t in
  let cell budget =
    Plan.row_cell (Printf.sprintf "budget=%d" budget) (fun () ->
        let rng = Rng.create (4000 + budget) in
        let faulty = Array.init f Fun.id in
        let advice = Gen.generate ~rng ~n ~faulty ~budget Gen.Uniform in
        let b = (Quality.measure ~n ~faulty advice).Quality.b in
        let inputs = Array.init n (fun _ -> Rng.int rng 2) in
        let w = { n; t; faulty; inputs; advice; b } in
        let adversary =
          Adv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun r -> -1_000_000 - r)
        in
        (* Divergence with the vote (k_A) and without (raw advice). *)
        let k_vote = measure_k_a ~adversary w in
        let honest = List.filter (fun i -> not (Array.mem i faulty)) (List.init n Fun.id) in
        let k_raw = divergence ~n ~faulty (List.map (fun i -> (i, advice.(i))) honest) in
        let o_vote = S.run_unauth ~t ~faulty ~inputs ~advice ~adversary () in
        let o_raw =
          S.run_unauth ~t ~faulty ~inputs ~advice ~adversary
            ~config:(S.unauth_config_no_vote ~t) ()
        in
        [
          fi b;
          ff (float_of_int b /. float_of_int n);
          fi k_vote;
          fi k_raw;
          fi (S.decision_round o_vote);
          fi (S.decision_round o_raw);
          (if S.agreement o_vote && S.agreement o_raw then "yes" else "NO");
        ])
  in
  table_plan ~quick ~exp_id:"E9"
    ~title:
      (Printf.sprintf "E9  ablation: classification vote vs raw advice  (n=%d, t=f=%d)" n t)
    ~headers:
      [ "B"; "B/n"; "k_A (vote)"; "k_A (raw)"; "decided (vote)"; "decided (raw)"; "correct" ]
    (List.map cell [ 0; n / 2; n; 2 * n; 4 * n ])
