(* E2 (Theorem 12, round complexity): the authenticated Algorithm 1
   keeps the O(min{B/n + 1, f}) decision rounds for t up to just below
   n/2 and for error budgets far beyond the unauthenticated n^(3/2)
   barrier (here up to Theta(n^2) planted bits). *)

open Common

let plan ?(quick = false) () =
  let n = if quick then 21 else 41 in
  let t = (9 * n / 20) - 1 in
  (* ~0.45 n *)
  let t = max 1 t in
  let trials = if quick then 2 else 3 in
  let cell f m =
    Plan.row_cell (Printf.sprintf "f=%d,m=%d" f m) (fun () ->
        let decided = ref [] and bs = ref [] and kas = ref [] and ok = ref true in
        for trial = 1 to trials do
          let rng = Rng.create ((101 * f) + (17 * m) + trial) in
          let w = make_workload ~rng ~n ~t ~f ~target_misclassified:m () in
          let adversary pki = Adv.prediction_attacker_auth ~pki ~v0:0 ~v1:1 in
          let d, _, _, correct, _ = run_auth ~adversary w in
          let k_a = measure_k_a ~adversary:(Adv.prediction_attacker ~v0:0 ~v1:1) w in
          decided := d :: !decided;
          bs := w.b :: !bs;
          kas := k_a :: !kas;
          ok := !ok && correct
        done;
        let b_mean = (Summary.of_ints !bs).Summary.mean in
        [
          fi f;
          fi m;
          ff b_mean;
          ff (b_mean /. float_of_int n);
          Summary.mean_string !kas;
          Summary.mean_string !decided;
          (if !ok then "yes" else "NO");
        ])
  in
  let cells =
    List.concat_map (fun f -> List.map (cell f) [ 0; 1; 2; 4 ]) [ 0; t / 2; t ]
  in
  table_plan ~quick ~exp_id:"E2"
    ~title:
      (Printf.sprintf "E2  auth rounds vs B  (n=%d, t=%d ~ 0.45n, focused errors)" n t)
    ~headers:[ "f"; "target-m"; "B"; "B/n"; "k_A"; "decided-round"; "correct" ]
    cells
