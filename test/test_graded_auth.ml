(* Authenticated graded consensus (Theorem 8 stand-in, t < n/2):
   strong unanimity, coherence, 3-round duration, resilience beyond n/3,
   under signature-equipped adversaries. *)

open Helpers

let run_gc ?adversary ~n ~t ~faulty inputs =
  let pki = Pki.create ~n in
  let adversary =
    match adversary with Some make -> make pki | None -> Adversary.passive
  in
  let outcome =
    run_protocol ~adversary ~n ~faulty (fun ctx ->
        let i = S.R.id ctx in
        S.Graded_auth.run ctx ~pki ~key:(Pki.key pki i) ~t ~tag:1 inputs.(i))
  in
  (S.R.honest_decisions outcome, outcome)

let test_unanimity () =
  let n = 7 and t = 3 in
  (* t = 3 of n = 7 is beyond n/3: only possible with authentication. *)
  let decisions, outcome = run_gc ~n ~t ~faulty:[| 0; 1; 2 |] (Array.make n 4) in
  Alcotest.(check int) "3 rounds" 3 outcome.S.R.rounds;
  List.iter
    (fun (_, (v, g)) -> Alcotest.(check (pair int int)) "grade 1" (4, 1) (v, g))
    decisions

let test_unanimity_under_silence () =
  let n = 9 and t = 4 in
  let decisions, _ =
    run_gc ~adversary:(fun _ -> Adversary.silent) ~n ~t ~faulty:[| 0; 2; 4; 6 |]
      (Array.make n 8)
  in
  List.iter
    (fun (_, (v, g)) -> Alcotest.(check (pair int int)) "grade 1" (8, 1) (v, g))
    decisions

(* A dealer-equivocation adversary: faulty dealers sign different values
   for different recipients in the gradecast init round. *)
let equivocating_dealer pki : Helpers.S.W.t Bap_sim.Adversary.t =
  Adversary.
    {
      name = "equivocating-dealer";
      make =
        (fun ~n ~faulty ->
          let keys = Hashtbl.create 8 in
          Array.iter (fun j -> Hashtbl.replace keys j (Pki.key pki j)) faulty;
          fun _view ~src ->
            per_recipient ~n (fun ~dst m ->
                match m with
                | S.W.Gcast_init (tg, sv) when sv.S.W.sv_dealer = src ->
                  let v = if dst mod 2 = 0 then 100 else 200 in
                  let key = Hashtbl.find keys src in
                  let sv' =
                    {
                      S.W.sv_dealer = src;
                      sv_value = v;
                      sv_sig = Pki.sign key (S.W.dealer_payload ~tag:tg ~dealer:src v);
                    }
                  in
                  [ S.W.Gcast_init (tg, sv') ]
                | m -> [ m ]));
    }

let coherent decisions =
  match List.filter (fun (_, (_, g)) -> g = 1) decisions with
  | [] -> true
  | (_, (v, _)) :: _ -> List.for_all (fun (_, (w, _)) -> w = v) decisions

let test_equivocating_dealers () =
  let n = 9 and t = 4 in
  let inputs = Array.init n (fun i -> i mod 2) in
  let decisions, _ =
    run_gc ~adversary:equivocating_dealer ~n ~t ~faulty:[| 0; 2; 4; 6 |] inputs
  in
  Alcotest.(check bool) "coherence despite equivocation" true (coherent decisions)

let prop_unanimity =
  qcheck ~count:50 ~name:"auth GC strong unanimity, t < n/2"
    QCheck2.Gen.(
      let* n, t, faulty, seed = config_gen ~max_n:17 ~t_of_n:(fun n -> (n - 1) / 2) () in
      let* v = int_range 0 5 in
      let* which = int_range 0 2 in
      return (n, t, faulty, seed, v, which))
    (fun (n, t, faulty, _seed, v, which) ->
      let adversary pki =
        match which with
        | 0 -> Adversary.passive
        | 1 -> Adversary.silent
        | _ -> equivocating_dealer pki
      in
      let decisions, _ = run_gc ~adversary ~n ~t ~faulty (Array.make n v) in
      List.for_all (fun (_, (w, g)) -> w = v && g = 1) decisions)

let prop_coherence =
  qcheck ~count:50 ~name:"auth GC coherence, t < n/2"
    QCheck2.Gen.(
      let* n, t, faulty, seed = config_gen ~max_n:17 ~t_of_n:(fun n -> (n - 1) / 2) () in
      let* which = int_range 0 2 in
      return (n, t, faulty, seed, which))
    (fun (n, t, faulty, seed, which) ->
      let rng = Rng.create seed in
      let inputs = Array.init n (fun _ -> Rng.int rng 3) in
      let adversary pki =
        match which with
        | 0 -> Adversary.passive
        | 1 -> Adversary.silent
        | _ -> equivocating_dealer pki
      in
      let decisions, _ = run_gc ~adversary ~n ~t ~faulty inputs in
      coherent decisions)

(* A faulty echoer whose round-2 echoes name [dealer], which lies
   outside [0, n): honest processes must drop them, not index by them. *)
let out_of_range_echoer ~dealer _pki : Helpers.S.W.t Bap_sim.Adversary.t =
  Adversary.
    {
      name = "out-of-range-echoer";
      make =
        (fun ~n:_ ~faulty:_ ->
          let rename (e : S.W.gcast_echo) =
            { e with S.W.ge_signed = { e.S.W.ge_signed with S.W.sv_dealer = dealer } }
          in
          fun _view ~src:_ ->
            concat_map (function
              | S.W.Gcast_echo (tg, echoes) -> [ S.W.Gcast_echo (tg, List.map rename echoes) ]
              | m -> [ m ]));
    }

let test_out_of_range_dealer () =
  let n = 5 and t = 2 in
  List.iter
    (fun dealer ->
      let decisions, _ =
        run_gc ~adversary:(out_of_range_echoer ~dealer) ~n ~t ~faulty:[| 4 |] (Array.make n 3)
      in
      Alcotest.(check int) (Printf.sprintf "dealer %d: all honest decide" dealer) (n - 1)
        (List.length decisions);
      List.iter
        (fun (_, d) ->
          Alcotest.(check (pair int int)) (Printf.sprintf "dealer %d: unanimity" dealer) (3, 1) d)
        decisions)
    [ n; -1 ]

(* Dealer 0 sends 100 to processes 1-3 only, and stays silent
   afterwards. Faulty echoer 1 sends its echo of 100 in [copies]
   messages, twice in each. The distinct echoers {1, 2, 3} fall short of
   the quorum n - t = 4, so no process may assemble a certificate;
   counting the repeats would deliver 100 at level 2. *)
let repeated_echoer ~copies pki : Helpers.S.W.t Bap_sim.Adversary.t =
  Adversary.
    {
      name = "repeated-echoer";
      make =
        (fun ~n ~faulty:_ (view : _ Adversary.view) ~src outbox ->
          match (src, view.round) with
          | 0, 1 ->
            per_recipient ~n
              (fun ~dst m ->
                if dst > 3 then []
                else
                  match m with
                  | S.W.Gcast_init (tg, _) ->
                    let sv_sig =
                      Pki.sign (Pki.key pki 0) (S.W.dealer_payload ~tag:tg ~dealer:0 100)
                    in
                    [ S.W.Gcast_init (tg, { S.W.sv_dealer = 0; sv_value = 100; sv_sig }) ]
                  | m -> [ m ])
              outbox
          | 0, _ -> mute
          | _, 2 ->
            concat_map
              (function
                | S.W.Gcast_echo (tg, echoes) ->
                  let mine, others =
                    List.partition (fun e -> e.S.W.ge_signed.S.W.sv_dealer = 0) echoes
                  in
                  S.W.Gcast_echo (tg, others)
                  :: List.init copies (fun _ -> S.W.Gcast_echo (tg, mine @ mine))
                | m -> [ m ])
              outbox
          | _ -> outbox);
    }

let test_repeated_echo_counts_once () =
  let n = 7 and t = 3 in
  let pki = Pki.create ~n in
  let outcome =
    run_protocol ~adversary:(repeated_echoer ~copies:3 pki) ~n ~faulty:[| 0; 1 |] (fun ctx ->
        let i = S.R.id ctx in
        S.Graded_auth.gradecast ctx ~pki ~key:(Pki.key pki i) ~t ~tag:2 i)
  in
  Alcotest.(check int) "all honest deliver" (n - 2) (List.length (S.R.honest_decisions outcome));
  List.iter
    (fun (i, deliveries) ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "process %d: dealer 0 is bot" i)
        None deliveries.(0))
    (S.R.honest_decisions outcome)

(* Two graded consensus instances in one execution, tags 1 and 2.
   Under tag 1 every input is 1; under tag 2 the honest inputs are 0, 0
   and 1, and the faulty processes deal 0. In tag 2's report round,
   faulty process 3 also sends process 2 alone every certificate that
   honest processes reported under tag 1. Were signatures not bound to
   their instance, each of those genuine certificates for 1 would
   conflict at process 2 with the dealer's tag-2 certificate for 0:
   processes 0 and 1 would output (0, 1) and process 2 (1, 0). *)
let certificate_replayer : Helpers.S.W.t Bap_sim.Adversary.t =
  Adversary.
    {
      name = "certificate-replayer";
      make =
        (fun ~n ~faulty:_ ->
          let tag1_certs = ref [] in
          fun (view : _ Adversary.view) ->
            if view.round = 3 then
              tag1_certs :=
                List.concat_map
                  (fun sender ->
                    List.concat_map
                      (function
                        | S.W.Gcast_report (1, reports) ->
                          List.filter (fun r -> Option.is_some r.S.W.gr_cert) reports
                        | _ -> [])
                      (view.honest_out ~sender ~recipient:sender))
                  [ 0; 1; 2 ];
            fun ~src outbox ->
              if src = 3 && view.round = 6 then
                per_recipient ~n
                  (fun ~dst m ->
                    if dst = 2 then [ m; S.W.Gcast_report (2, !tag1_certs) ] else [ m ])
                  outbox
              else outbox);
    }

let test_replayed_certificates_keep_coherence () =
  let n = 5 and t = 2 in
  let pki = Pki.create ~n in
  let memo = S.W.memo pki in
  let outcome =
    run_protocol ~adversary:certificate_replayer ~n ~faulty:[| 3; 4 |] (fun ctx ->
        let i = S.R.id ctx in
        let key = Pki.key pki i in
        ignore (S.Graded_auth.run ~memo ctx ~pki ~key ~t ~tag:1 1);
        S.Graded_auth.run ~memo ctx ~pki ~key ~t ~tag:2 (if i = 2 then 1 else 0))
  in
  let decisions = S.R.honest_decisions outcome in
  Alcotest.(check int) "all honest decide" 3 (List.length decisions);
  Alcotest.(check bool) "coherence" true (coherent decisions)

let suite =
  [
    Alcotest.test_case "strong unanimity beyond n/3" `Quick test_unanimity;
    Alcotest.test_case "unanimity under silence" `Quick test_unanimity_under_silence;
    Alcotest.test_case "coherence under dealer equivocation" `Quick
      test_equivocating_dealers;
    prop_unanimity;
    prop_coherence;
    Alcotest.test_case "echo naming an out-of-range dealer is dropped" `Quick
      test_out_of_range_dealer;
    Alcotest.test_case "repeated echoes count once" `Quick test_repeated_echo_counts_once;
    Alcotest.test_case "two instances: replayed certificates keep coherence" `Quick
      test_replayed_certificates_keep_coherence;
  ]
