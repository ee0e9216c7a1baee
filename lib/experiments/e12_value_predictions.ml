(* E12 (extension beyond the paper - its conclusion asks about other
   prediction types): value predictions. Each process additionally
   receives a predicted decision value; the wrapper's fast path decides
   in O(1) rounds when the predictions are shared, whatever the
   classification advice does. The sweep varies the fraction of
   processes holding the "right" prediction. *)

open Common

let plan ?(quick = false) () =
  let n = if quick then 31 else 61 in
  let t = (n - 1) / 3 in
  let f = t in
  let cell accurate_fraction =
    Plan.row_cell
      (Printf.sprintf "acc=%d" (int_of_float (accurate_fraction *. 100.)))
      (fun () ->
        let adversary =
          Adv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun r -> -1_000_000 - r)
        in
        let rng = Rng.create (6000 + int_of_float (accurate_fraction *. 100.)) in
        (* Classification advice is garbage (everything covered), so the
           classification path alone would be slow. *)
        let w = make_workload ~rng ~n ~t ~f ~target_misclassified:f () in
        let preds =
          Array.init n (fun _ ->
              if Rng.float rng < accurate_fraction then 1 else Rng.int rng 2)
        in
        let o =
          S.run_unauth ~t ~faulty:w.faulty ~inputs:w.inputs ~advice:w.advice ~adversary
            ~value_predictions:preds ()
        in
        let o_base =
          S.run_unauth ~t ~faulty:w.faulty ~inputs:w.inputs ~advice:w.advice ~adversary ()
        in
        [
          Printf.sprintf "%.0f%%" (accurate_fraction *. 100.);
          fi (S.decision_round o);
          fi (S.decision_round o_base);
          (if S.agreement o && S.unanimous_validity ~inputs:w.inputs ~faulty:w.faulty o
           then "yes"
           else "NO");
        ])
  in
  table_plan ~quick ~exp_id:"E12"
    ~title:
      (Printf.sprintf "E12  value predictions (extension)  (n=%d, t=f=%d, splitter)" n t)
    ~headers:
      [ "shared prediction"; "decided (with value preds)"; "decided (without)"; "correct" ]
    (List.map cell [ 1.0; 0.9; 0.5; 0.0 ])
