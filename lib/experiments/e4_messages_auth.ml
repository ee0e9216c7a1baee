(* E4 (Theorem 12, message complexity): honest messages of the
   authenticated stack as n grows - O(n^3 log(min{B/n, f})) in the
   paper's accounting, dominated by the n parallel Byzantine broadcasts
   of Algorithm 7. *)

open Common

let plan ?(quick = false) () =
  let sizes = if quick then [ 11; 17; 21 ] else [ 11; 21; 31; 41 ] in
  let cell n =
    Plan.row_cell (Printf.sprintf "n=%d" n) (fun () ->
        let t = max 1 ((9 * n / 20) - 1) in
        let f = t / 2 in
        let rng = Rng.create (2000 + n) in
        let w = make_workload ~rng ~n ~t ~f ~target_misclassified:2 () in
        let _, _, msgs, correct, _ =
          run_auth ~adversary:(fun _ -> Adv.advice_liar_then_silent) w
        in
        let n2 = float_of_int (n * n) in
        let n3 = n2 *. float_of_int n in
        [
          fi n;
          fi t;
          fi f;
          fi msgs;
          ff (float_of_int msgs /. n2);
          Printf.sprintf "%.3f" (float_of_int msgs /. n3);
          (if correct then "yes" else "NO");
        ])
  in
  table_plan ~quick ~exp_id:"E4"
    ~title:"E4  auth messages vs n  (f = t/2 silent faults, 2 misclassified)"
    ~headers:[ "n"; "t"; "f"; "msgs"; "msgs/n^2"; "msgs/n^3"; "correct" ]
    (List.map cell sizes)
