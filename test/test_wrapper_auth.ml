(* Algorithm 1, authenticated configuration (Theorem 12): agreement and
   strong unanimity for t up to (1/2 - eps) n, including B beyond the
   unauthenticated n^(3/2) barrier. *)

open Helpers
module Gen = Bap_prediction.Gen

let test_beyond_third () =
  let n = 11 and t = 4 in
  (* 4 actual Byzantine of 11: beyond the unauthenticated n/3 bound. *)
  let faulty = [| 1; 3; 5; 7 |] in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.init n (fun i -> i mod 2) in
  let o, _ = S.run_auth ~t ~faulty ~inputs ~advice () in
  Alcotest.(check bool) "agreement" true (S.agreement o)

let test_unanimity_infiltrator () =
  let n = 11 and t = 4 in
  let faulty = [| 0; 2; 4 |] in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.make n 6 in
  let o, _ =
    S.run_auth ~t ~faulty ~inputs ~advice
      ~adversary:(fun pki -> Adv.committee_infiltrator ~pki ~v0:1 ~v1:2)
      ()
  in
  Alcotest.(check bool) "validity" true (S.unanimous_validity ~inputs ~faulty o)

(* Certificates replayed across instances, and lying kings. The faulty
   processes follow the protocol and attack one honest target twice:
   whenever they send a gradecast report, they also send the target a
   report under that tag carrying every certificate that honest
   processes reported under another tag; and as kings they send the
   target the opposite value. Were signatures not bound to their
   instance, the replay would hold the target at grade 0 or bot and the
   kings would move its value: at n=6, t=2, faulty {1, 5}, the target
   decided 1 at round 63 and processes 2-4 decided 0 at round 28. *)
let replay_and_lying_kings ~target : S.W.t Adversary.t =
  {
    Adversary.name = "replay-and-lying-kings";
    make =
      (fun ~n ~faulty ->
        let honest = List.filter (fun i -> not (Array.mem i faulty)) (List.init n Fun.id) in
        let certs = ref [] (* (tag, report) of every honest certificate so far *) in
        fun view ->
          List.iter
            (fun sender ->
              List.iter
                (function
                  | S.W.Gcast_report (tg, reports) ->
                    List.iter
                      (fun r -> if Option.is_some r.S.W.gr_cert then certs := (tg, r) :: !certs)
                      reports
                  | _ -> ())
                (view.Adversary.honest_out ~sender ~recipient:target))
            honest;
          let other_tags tg =
            List.filter_map (fun (tg', r) -> if tg' <> tg then Some r else None) !certs
          in
          fun ~src:_ outbox ->
            Adversary.per_recipient ~n
              (fun ~dst m ->
                match m with
                | _ when dst <> target -> [ m ]
                | S.W.King (tg, v) -> [ S.W.King (tg, 1 - v) ]
                | S.W.Gcast_report (tg, _) -> [ m; S.W.Gcast_report (tg, other_tags tg) ]
                | m -> [ m ])
              outbox);
  }

let test_replay_with_lying_kings () =
  let n = 6 and t = 2 in
  let faulty = [| 1; 5 |] in
  let inputs = [| 0; 0; 1; 1; 1; 0 |] in
  let advice = Gen.perfect ~n ~faulty in
  let o, _ =
    S.run_auth ~t ~faulty ~inputs ~advice ~adversary:(fun _ -> replay_and_lying_kings ~target:0) ()
  in
  Alcotest.(check int) "all honest decide" 4 (List.length (S.R.honest_decisions o));
  Alcotest.(check bool) "agreement" true (S.agreement o)

let prop_agreement_grid =
  qcheck ~count:40 ~name:"Theorem 12: agreement, t < n/2, any B"
    QCheck2.Gen.(
      let* n = int_range 7 17 in
      let t = max 1 ((n / 2) - 1) in
      let* f = int_range 0 t in
      let* seed = int_range 0 1_000_000 in
      let* budget = int_range 0 (n * n) in
      let* placement = oneofl [ Gen.Uniform; Gen.Focused; Gen.Scattered; Gen.All_wrong ] in
      let* adv = int_range 0 4 in
      return (n, t, f, seed, budget, placement, adv))
    (fun (n, t, f, seed, budget, placement, adv) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let advice = Gen.generate ~rng ~n ~faulty ~budget placement in
      let inputs = Array.init n (fun _ -> Rng.int rng 2) in
      let adversary pki =
        match adv with
        | 0 -> Adversary.passive
        | 1 -> Adversary.silent
        | 2 -> Adv.prediction_attacker_auth ~pki ~v0:0 ~v1:1
        | 3 -> Adv.vote_withholder
        | _ -> Adv.committee_infiltrator ~pki ~v0:0 ~v1:1
      in
      let o, _ = S.run_auth ~t ~faulty ~inputs ~advice ~adversary () in
      S.agreement o && S.unanimous_validity ~inputs ~faulty o)

let prop_perfect_advice_phase1 =
  qcheck ~count:20 ~name:"perfect advice decides in phase 1 (auth)"
    QCheck2.Gen.(
      let* n = int_range 9 17 in
      let t = max 1 ((n / 2) - 2) in
      let* f = int_range 0 t in
      let* seed = int_range 0 1_000 in
      return (n, t, f, seed))
    (fun (n, t, f, seed) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let advice = Gen.perfect ~n ~faulty in
      let inputs = Array.init n (fun _ -> Rng.int rng 2) in
      let o, _ = S.run_auth ~t ~faulty ~inputs ~advice ~adversary:(fun _ -> Adversary.silent) () in
      let pki = Pki.create ~n:1 in
      ignore pki;
      let cfg =
        (* The schedule only depends on round counts, not on keys; build
           it with a throwaway pki/key. *)
        let pki = Pki.create ~n in
        S.auth_config ~pki ~key:(Pki.key pki 0) ~t ()
      in
      let phase1_end =
        List.fold_left
          (fun acc (_, phi, _, last) -> if phi <= 1 then max acc last else acc)
          0 (S.Wrapper.schedule cfg ~t)
      in
      S.Ba_class_auth.feasible ~n ~t ~k:1 = false || S.decision_round o <= phase1_end)

let suite =
  [
    Alcotest.test_case "agreement beyond n/3" `Quick test_beyond_third;
    Alcotest.test_case "unanimity vs committee infiltrator" `Quick
      test_unanimity_infiltrator;
    Alcotest.test_case "replayed certificates and lying kings keep agreement" `Quick
      test_replay_with_lying_kings;
    prop_agreement_grid;
    prop_perfect_advice_phase1;
  ]
