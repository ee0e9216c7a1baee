(* E1 (Theorem 11, round complexity): decision rounds of the
   unauthenticated Algorithm 1 as a function of the prediction error
   budget B, for several actual fault counts f. The paper's claim:
   decisions within O(min{B/n + 1, f}) rounds, i.e. growing with the
   misclassification level B/n and capped by the early-stopping side
   when f is small. *)

open Common

let plan ?(quick = false) () =
  let n = if quick then 31 else 61 in
  let t = (n - 1) / 3 in
  let trials = if quick then 2 else 3 in
  let cell f m =
    Plan.row_cell (Printf.sprintf "f=%d,m=%d" f m) (fun () ->
        let decided = ref [] and bs = ref [] and kas = ref [] and ok = ref true in
        for trial = 1 to trials do
          let rng = Rng.create ((97 * f) + (13 * m) + trial) in
          let w = make_workload ~rng ~n ~t ~f ~target_misclassified:m () in
          let adversary =
            Adv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun round -> -1_000_000 - round)
          in
          let d, _, _, correct, _ = run_unauth ~adversary w in
          let k_a = measure_k_a ~adversary w in
          decided := d :: !decided;
          bs := w.b :: !bs;
          kas := k_a :: !kas;
          ok := !ok && correct
        done;
        let b_mean = (Summary.of_ints !bs).Summary.mean in
        [
          fi n;
          fi f;
          fi m;
          ff b_mean;
          ff (b_mean /. float_of_int n);
          Summary.mean_string !kas;
          Summary.mean_string !decided;
          fi (min (m + 1) (f + 2));
          (if !ok then "yes" else "NO");
        ])
  in
  (* Scale block: the same claim measured as n grows (counted core).
     With B/n and the fault ratio held fixed, the decided round must stay
     flat — the theorem's bound depends on B/n and f only through the
     min, never on n directly. One trial per point; the runs are
     deterministic anyway. *)
  let scale_cell n' =
    Plan.row_cell (Printf.sprintf "scale,n=%d" n') (fun () ->
        let t' = (n' - 1) / 3 in
        let f = t' / 2 in
        let m = 2 in
        let rng = Rng.create (100_003 + n') in
        let w = make_workload ~rng ~n:n' ~t:t' ~f ~target_misclassified:m () in
        let adversary = Adv.advice_liar_then_silent in
        let d, _, _, correct, _ = run_unauth ~adversary w in
        let k_a = measure_k_a ~adversary w in
        [
          fi n';
          fi f;
          fi m;
          fi w.b;
          ff (float_of_int w.b /. float_of_int n');
          fi k_a;
          fi d;
          fi (min (m + 1) (f + 2));
          (if correct then "yes" else "NO");
        ])
  in
  let scale_sizes = if quick then [ 61; 125 ] else [ 31; 61; 125; 250; 500; 1000 ] in
  let cells =
    List.concat_map
      (fun f -> List.map (cell f) [ 0; 1; 2; 4; 8; 10; 12 ])
      [ 0; t / 2; t ]
    @ List.map scale_cell scale_sizes
  in
  table_plan ~quick ~exp_id:"E1"
    ~title:
      (Printf.sprintf
         "E1  unauth rounds vs B  (n=%d, t=%d, focused errors + lying faulty; \
          scale rows: f=t/2, m=2, liar-then-silent)"
         n t)
    ~headers:
      [
        "n"; "f"; "target-m"; "B"; "B/n"; "k_A"; "decided-round"; "min(m+1,f+2)"; "correct";
      ]
    cells
