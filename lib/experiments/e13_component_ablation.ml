(* E13 (ablation of Algorithm 1's interleaving): the wrapper runs BOTH
   an early-stopping BA (wins when f is small) and a conditional
   classification BA (wins when the advice is good) each phase. This
   table removes each component in turn:

   - without the early-stopping component, termination-with-agreement
     depends entirely on the advice: with enough misclassifications the
     honest processes can finish the final phase still split (the
     "correct" column turns NO);
   - without the classification BA, good advice buys nothing and the
     decision falls back to the O(f) path;
   - the full wrapper takes the better of the two in every cell.

   (A NO in this table is an ablation demonstrating a *removed*
   guarantee, not a bug: the shipped configuration always keeps both
   components.) *)

open Common

let plan ?(quick = false) () =
  let n = if quick then 31 else 61 in
  let t = (n - 1) / 3 in
  let cell (f, m) =
    Plan.row_cell (Printf.sprintf "f=%d,m=%d" f m) (fun () ->
        let adversary =
          Adv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun r -> -1_000_000 - r)
        in
        let full = S.unauth_config ~t in
        let no_es = { full with S.Wrapper.ablate_es = true } in
        let no_bc = { full with S.Wrapper.ablate_bc = true } in
        let rng = Rng.create ((41 * f) + m) in
        let w = make_workload ~rng ~n ~t ~f ~target_misclassified:m () in
        let variant config =
          let o =
            S.run_unauth ~t ~faulty:w.faulty ~inputs:w.inputs ~advice:w.advice ~adversary
              ~config ()
          in
          let ok =
            S.agreement o && S.unanimous_validity ~inputs:w.inputs ~faulty:w.faulty o
          in
          Printf.sprintf "%d%s" (S.decision_round o) (if ok then "" else " (NO!)")
        in
        [ fi f; fi m; variant full; variant no_bc; variant no_es ])
  in
  table_plan ~quick ~exp_id:"E13"
    ~title:
      (Printf.sprintf "E13  component ablation of Algorithm 1  (n=%d, t=%d, splitter)" n t)
    ~headers:[ "f"; "target-m"; "full wrapper"; "without class-BA"; "without early-stop" ]
    (List.map cell [ (0, 0); (0, t); (t / 2, 0); (t, 0); (t, 2); (t, t) ])
