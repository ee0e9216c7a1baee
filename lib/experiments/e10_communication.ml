(* E10 (the paper's conclusion on communication complexity): the bit
   complexity of the implementation as n grows. The conclusion notes
   that the advice-voting step alone already costs O(n^3) bits (n^2
   advice broadcasts of n bits each); this table measures it, together
   with the full executions of both stacks. *)

open Common

let classify_bits ~n ~f =
  (* (n - f) honest senders, each broadcasting an (n + 32)-bit advice
     message to n - 1 peers. *)
  (n - f) * (n - 1) * (n + 32)

let plan ?(quick = false) () =
  let sizes = if quick then [ 16; 25; 31 ] else [ 16; 31; 46; 61 ] in
  let cell n =
    Plan.row_cell (Printf.sprintf "n=%d" n) (fun () ->
        let t = (n - 1) / 3 in
        let f = t / 2 in
        let rng = Rng.create (5000 + n) in
        let w = make_workload ~rng ~n ~t ~f ~target_misclassified:2 () in
        let _, _, _, ok_u, o_u = run_unauth ~adversary:Adv.advice_liar_then_silent w in
        let auth_n = if quick && n > 25 then None else Some n in
        let auth_bits =
          match auth_n with
          | None -> None
          | Some _ ->
            let _, _, _, _, o_a =
              run_auth ~adversary:(fun _ -> Adv.advice_liar_then_silent) w
            in
            Some o_a.S.R.honest_bits
        in
        let n3 = float_of_int (n * n * n) in
        [
          fi n;
          fi t;
          fi (classify_bits ~n ~f);
          fi o_u.S.R.honest_bits;
          ff (float_of_int o_u.S.R.honest_bits /. n3);
          (match auth_bits with Some b -> fi b | None -> "-");
          (match auth_bits with Some b -> ff (float_of_int b /. n3) | None -> "-");
          (if ok_u then "yes" else "NO");
        ])
  in
  table_plan ~quick ~exp_id:"E10"
    ~title:"E10  communication complexity in bits  (f = t/2, 2 misclassified)"
    ~headers:
      [
        "n"; "t"; "classify-bits"; "unauth-bits"; "unauth/n^3"; "auth-bits"; "auth/n^3";
        "correct";
      ]
    (List.map cell sizes)
