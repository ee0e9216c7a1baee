(* E6 (Theorem 14): even with 100% correct predictions the protocol
   sends Omega(t^2) messages. We sweep t, run the wrapper with perfect
   advice and f = 0 (the adversary cannot even act), and audit the
   execution against the Dolev-Reischuk dichotomy: pay ceil(t/2) *
   floor(t/2) messages or leave some process isolable. The second table
   runs the proof's indistinguishability construction against a cheap
   prediction-trusting protocol and shows the resulting agreement
   violation. *)

open Common
module Message_lb = Bap_lowerbound.Message_lb

let plan ?(quick = false) () =
  let sizes = if quick then [ 13; 22; 31 ] else [ 13; 22; 31; 46; 61 ] in
  let cell n =
    Plan.row_cell (Printf.sprintf "n=%d" n) (fun () ->
        let t = (n - 1) / 3 in
        let rng = Rng.create (3000 + n) in
        let w = make_workload ~rng ~n ~t ~f:0 ~target_misclassified:0 () in
        let _, _, msgs, correct, o = run_unauth ~adversary:Adversary.passive w in
        let audit =
          Message_lb.audit ~honest_sent:msgs ~honest_received:o.S.R.honest_received ~t
        in
        [
          fi n;
          fi t;
          fi msgs;
          fi audit.Message_lb.threshold;
          fi (snd audit.Message_lb.min_received);
          fi audit.Message_lb.isolation_threshold;
          (if audit.Message_lb.paid then "yes" else "NO");
          (if correct then "yes" else "NO");
        ])
  in
  (* The proof construction against an under-communicating protocol,
     reduced to the strings the prose below needs. *)
  let demo_cell =
    Plan.row_cell "demo" (fun () ->
        let demo = Message_lb.Demo.run ~n:(List.hd sizes) in
        [
          fi (snd (List.hd demo.Message_lb.Demo.good_decisions));
          fi demo.Message_lb.Demo.starved;
          fi (List.assoc demo.Message_lb.Demo.starved demo.Message_lb.Demo.bad_decisions);
          string_of_bool demo.Message_lb.Demo.agreement_broken;
        ])
  in
  {
    Plan.exp_id = "E6";
    scope = Plan.scope_of_quick quick;
    cells = List.map cell sizes @ [ demo_cell ];
    render =
      (fun results ->
        header "E6  message lower bound audit  (perfect predictions, f=0)";
        let table_rows =
          Plan.rows (List.filter (fun (k, _) -> k <> "demo") results)
        in
        Table.print
          ~headers:
            [ "n"; "t"; "msgs"; "t^2/4"; "min-received"; "isolation-thr"; "paid"; "correct" ]
          table_rows;
        match List.assoc "demo" results with
        | [ [ good; starved; starved_decides; broken ] ] ->
          Printf.printf
            "\nDolev-Reischuk demo vs cheap prediction-trusting broadcast (n=%d):\n"
            (List.hd sizes);
          Printf.printf "  E_good: all honest decide %s\n" good;
          Printf.printf "  E_bad:  starved process %s decides %s, everyone else decides 1\n"
            starved starved_decides;
          Printf.printf
            "  agreement broken: %s  (hence Omega(n + t^2) messages are necessary)\n" broken
        | _ -> invalid_arg "E6: malformed demo cell");
  }
