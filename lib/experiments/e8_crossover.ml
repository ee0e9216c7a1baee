(* E8 (the paper's "graceful degradation" story): decision rounds of the
   prediction wrapper against the no-prediction baselines as the advice
   quality degrades. With good advice the wrapper wins; with garbage
   advice it never does worse than the early-stopping baseline's O(f)
   (up to the wrapper's constant), and both beat the always-Theta(t)
   plain phase king when f << t. *)

open Common

let plan ?(quick = false) () =
  let n = if quick then 31 else 61 in
  let t = (n - 1) / 3 in
  let cell f m =
    Plan.row_cell (Printf.sprintf "f=%d,m=%d" f m) (fun () ->
        let rng = Rng.create ((31 * f) + m) in
        let w = make_workload ~rng ~n ~t ~f ~target_misclassified:m () in
        let d, _, _, ok, _ =
          run_unauth
            ~adversary:
              (Adv.adaptive_splitter ~n_minus_t:(n - t)
                 ~junk:(fun round -> -1_000_000 - round))
            w
        in
        let es =
          B.run_early_stopping ~t ~faulty:w.faulty ~inputs:w.inputs
            ~adversary:Bap_sim.Adversary.silent ()
        in
        let pk =
          B.run_phase_king ~t ~faulty:w.faulty ~inputs:w.inputs
            ~adversary:Bap_sim.Adversary.silent ()
        in
        [
          fi f;
          fi m;
          fi w.b;
          fi d;
          fi es.B.decided_round;
          fi pk.B.rounds;
          (if ok && es.B.agreement && pk.B.agreement then "yes" else "NO");
        ])
  in
  let cells =
    List.concat_map (fun f -> List.map (cell f) [ 0; 2; 8; 12 ]) [ 0; 2; t / 2; t ]
  in
  table_plan ~quick ~exp_id:"E8"
    ~title:
      (Printf.sprintf "E8  predictions vs baselines  (n=%d, t=%d, silent+lying faults)" n t)
    ~headers:
      [ "f"; "target-m"; "B"; "wrapper-decided"; "es-baseline"; "phase-king"; "correct" ]
    cells
