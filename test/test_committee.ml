(* Lemma 24, measured directly: run only Algorithm 7's committee
   election (each honest process sends signed votes to the first 2k+1
   identifiers of its ordering; a process with t+1 votes holds a
   certificate) and check |C| <= 3k+1, |C inter F| <= k and
   |C inter H| >= k+1 whenever k bounds the misclassifications and
   2k+1 <= n - t - k. *)

open Helpers
module Gen = Bap_prediction.Gen
module C = Bap_core.Classification

(* One election: returns (certified ids, faulty set, k_A). *)
let run_election ~n ~t ~k ~f ~m ~seed =
  let rng = Rng.create seed in
  let faulty = Array.of_list (Rng.sample_without_replacement rng f n) in
  let per = max 1 (C.majority_threshold n - f) in
  let advice =
    if m = 0 then Gen.perfect ~n ~faulty
    else Gen.generate ~rng ~n ~faulty ~budget:(m * per) (Gen.Targeted per)
  in
  let pki = Pki.create ~n in
  let adversary = Adv.advice_liar in
  let outcome =
    run_protocol ~adversary ~n ~faulty (fun ctx ->
        let i = S.R.id ctx in
        let key = Pki.key pki i in
        let c = S.Classify_p.run ctx advice.(i) in
        let order = C.pi c in
        let l_set = List.init ((2 * k) + 1) (fun j -> order.(j)) in
        let votes =
          List.map
            (fun j -> (j, S.W.Committee_vote (0, Pki.sign key (S.W.committee_payload j))))
            l_set
        in
        let inbox = S.R.send_to ctx votes in
        let supporters = ref 0 in
        Bap_sim.Inbox.iteri inbox ~f:(fun sender msgs ->
            if
              List.exists
                (function
                  | S.W.Committee_vote (_, s) ->
                    Pki.verify pki ~signer:sender ~payload:(S.W.committee_payload i) s
                  | _ -> false)
                msgs
            then incr supporters);
        !supporters >= t + 1)
  in
  (* The committee also includes faulty processes with enough votes; the
     puppets ran the same code, so read their results too. *)
  let certified =
    List.filteri (fun _ _ -> true) (List.init n Fun.id)
    |> List.filter (fun i ->
           match outcome.S.R.decisions.(i) with Some b -> b | None -> false)
  in
  let rng2 = Rng.create seed in
  ignore rng2;
  let honest_classifications =
    (* Re-derive k_A by rerunning classification alone. *)
    let o2 =
      run_protocol ~adversary ~n ~faulty (fun ctx ->
          S.Classify_p.run ctx advice.(S.R.id ctx))
    in
    S.R.honest_decisions o2
  in
  let k_a, _, _ = C.k_counts ~n ~faulty ~honest_classifications in
  (certified, faulty, k_a)

let prop_lemma24 =
  qcheck ~count:40 ~name:"Lemma 24: committee size and composition"
    QCheck2.Gen.(
      let* t = int_range 1 5 in
      let* f = int_range 0 t in
      let* k = int_range 1 3 in
      let* m = int_range 0 k in
      let* seed = int_range 0 1_000_000 in
      (* ensure 2k+1 <= n - t - k and t < n/2 *)
      let n = max ((3 * k) + t + 2) ((2 * t) + 2) in
      return (n, t, k, f, m, seed))
    (fun (n, t, k, f, m, seed) ->
      let certified, faulty, k_a = run_election ~n ~t ~k ~f ~m ~seed in
      if k_a > k then true (* precondition violated: nothing claimed *)
      else begin
        let is_faulty = Array.make n false in
        Array.iter (fun j -> is_faulty.(j) <- true) faulty;
        let c_f = List.length (List.filter (fun i -> is_faulty.(i)) certified) in
        let c_h = List.length certified - c_f in
        List.length certified <= (3 * k) + 1 && c_f <= k && c_h >= k + 1
      end)

let test_perfect_advice_committee_honest () =
  let certified, faulty, k_a = run_election ~n:14 ~t:4 ~k:1 ~f:4 ~m:0 ~seed:5 in
  Alcotest.(check int) "no misclassification" 0 k_a;
  let is_faulty = Array.make 14 false in
  Array.iter (fun j -> is_faulty.(j) <- true) faulty;
  Alcotest.(check bool) "committee all honest" true
    (List.for_all (fun i -> not is_faulty.(i)) certified);
  Alcotest.(check int) "committee is the 2k+1 most trusted" 3 (List.length certified)

let suite =
  [
    prop_lemma24;
    Alcotest.test_case "perfect advice elects honest committee" `Quick
      test_perfect_advice_committee_honest;
  ]
