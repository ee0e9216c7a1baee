(* E3 (Theorem 11, message complexity): honest messages of the
   unauthenticated stack as n grows, at a fixed misclassification level.
   The paper claims O(n^2 log(min{B/n, f})) in the model where the
   early-stopping black box costs O(n^2) per invocation; our phase-king
   early stopping costs O(n^2) per round, so the table reports both the
   raw total and the per-component attribution that isolates the
   prediction machinery (classify + gc + bc). *)

open Common

let plan ?(quick = false) () =
  let sizes =
    (* The counted core makes the large points affordable: the n=1000
       cell runs in seconds where the concrete engine took minutes. *)
    if quick then [ 16; 25; 31 ] else [ 16; 31; 46; 61; 125; 250; 500; 1000 ]
  in
  let cell n =
    Plan.row_cell (Printf.sprintf "n=%d" n) (fun () ->
        let t = (n - 1) / 3 in
        let f = t / 2 in
        let rng = Rng.create (1000 + n) in
        let w = make_workload ~rng ~n ~t ~f ~target_misclassified:2 () in
        let _, _, msgs, correct, o = run_unauth ~adversary:Adv.advice_liar_then_silent w in
        let cfg = S.unauth_config ~t in
        let by = S.messages_by_component cfg ~t o in
        let comp label = Option.value (List.assoc_opt label by) ~default:0 in
        let prediction_machinery = comp "classify" + comp "gc" + comp "bc" in
        let n2 = float_of_int (n * n) in
        [
          fi n;
          fi t;
          fi f;
          fi msgs;
          ff (float_of_int msgs /. n2);
          fi prediction_machinery;
          ff (float_of_int prediction_machinery /. n2);
          fi (comp "es");
          (if correct then "yes" else "NO");
        ])
  in
  table_plan ~quick ~exp_id:"E3"
    ~title:"E3  unauth messages vs n  (f = t/2 silent faults, 2 misclassified)"
    ~headers:
      [ "n"; "t"; "f"; "msgs"; "msgs/n^2"; "pred-mach"; "pred/n^2"; "es-msgs"; "correct" ]
    (List.map cell sizes)
