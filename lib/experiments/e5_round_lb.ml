(* E5 (Theorem 13): the measured decision round against the round lower
   bound min{f+2, t+1, B/(n-f)+2, B/(n-t)+1} over a joint (f, B) sweep.
   The bound and the measurement should rise and cap together (the
   theorem says the *shape* min{B/n, f} is forced); the measured value
   sits a constant factor above the bound because each of the paper's
   "rounds" costs a constant number of protocol rounds per wrapper
   phase. *)

open Common
module Round_lb = Bap_lowerbound.Round_lb

let plan ?(quick = false) () =
  let n = if quick then 31 else 61 in
  let t = (n - 1) / 3 in
  let cell f m =
    Plan.row_cell (Printf.sprintf "f=%d,m=%d" f m) (fun () ->
        let rng = Rng.create ((7 * f) + (29 * m) + 5) in
        let w = make_workload ~rng ~n ~t ~f ~target_misclassified:m () in
        let d, _, _, correct, _ =
          run_unauth
            ~adversary:
              (Adv.adaptive_splitter ~n_minus_t:(n - t)
                 ~junk:(fun round -> -1_000_000 - round))
            w
        in
        let lb = Round_lb.bound ~n ~t ~f ~b:w.b in
        [
          fi f;
          fi m;
          fi w.b;
          fi lb;
          fi d;
          ff (float_of_int d /. float_of_int (max 1 lb));
          (if correct then "yes" else "NO");
        ])
  in
  let cells =
    List.concat_map
      (fun f -> List.map (cell f) [ 0; 1; 2; 4; 8; 12 ])
      [ 0; 2; t / 2; t ]
  in
  table_plan ~quick ~exp_id:"E5"
    ~title:(Printf.sprintf "E5  round lower bound vs measured  (n=%d, t=%d)" n t)
    ~headers:[ "f"; "target-m"; "B"; "LB"; "measured"; "measured/LB"; "correct" ]
    cells
