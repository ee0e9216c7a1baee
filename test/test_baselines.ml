(* The no-prediction baselines: early-stopping phase king, plain phase
   king, Dolev-Strong agreement. *)

open Helpers
module B = Bap_baselines.Baseline_runs.Make (Bap_core.Value.Int)
module BAdv = Bap_adversary.Strategies.Make (Bap_core.Value.Int) (B.S.W)

let test_es_baseline () =
  let n = 10 and t = 3 in
  let inputs = Array.init n (fun i -> i mod 2) in
  let s = B.run_early_stopping ~t ~faulty:[| 1 |] ~inputs ~adversary:Bap_sim.Adversary.silent () in
  Alcotest.(check bool) "agreement" true s.B.agreement;
  Alcotest.(check bool) "validity" true s.B.validity;
  (* One silent fault: king 0 honest, decided in phase 1. *)
  Alcotest.(check bool) "early decision" true (s.B.decided_round <= 5)

let test_phase_king_baseline () =
  let n = 10 and t = 3 in
  let inputs = Array.init n (fun i -> i mod 2) in
  let s = B.run_phase_king ~t ~faulty:[| 0; 4 |] ~inputs () in
  Alcotest.(check bool) "agreement" true s.B.agreement;
  (* Plain phase king never stops early. *)
  Alcotest.(check int) "always (t+1)(gc+1) rounds" ((t + 1) * 3) s.B.rounds

let test_dolev_strong_baseline () =
  let n = 9 and t = 4 in
  (* t beyond n/3: Dolev-Strong handles it with signatures. *)
  let inputs = Array.init n (fun i -> i mod 2) in
  let s = B.run_dolev_strong ~t ~faulty:[| 0; 1; 2; 3 |] ~inputs () in
  Alcotest.(check bool) "agreement" true s.B.agreement;
  Alcotest.(check int) "t+1 rounds" (t + 1) s.B.rounds

let test_dolev_strong_validity () =
  let n = 7 and t = 2 in
  let inputs = Array.make n 5 in
  let s = B.run_dolev_strong ~t ~faulty:[| 6 |] ~inputs () in
  Alcotest.(check bool) "validity" true s.B.validity

let prop_es_baseline =
  qcheck ~count:40 ~name:"ES baseline agreement + validity"
    QCheck2.Gen.(
      let* n, t, faulty, seed = config_gen ~t_of_n:(fun n -> (n - 1) / 3) () in
      let* which = int_range 0 2 in
      return (n, t, faulty, seed, which))
    (fun (n, t, faulty, seed, which) ->
      let rng = Rng.create seed in
      let inputs = Array.init n (fun _ -> Rng.int rng 2) in
      let adversary =
        match which with
        | 0 -> Bap_sim.Adversary.passive
        | 1 -> Bap_sim.Adversary.silent
        | _ -> BAdv.equivocate ~v0:0 ~v1:1
      in
      let s = B.run_early_stopping ~t ~faulty ~inputs ~adversary () in
      s.B.agreement && s.B.validity)

let test_interactive_consistency () =
  let n = 8 and t = 3 in
  let inputs = Array.init n (fun i -> i * 10) in
  let faulty = [| 2; 5 |] in
  let decisions = B.run_interactive_consistency ~t ~faulty ~inputs () in
  (* All honest processes hold the same vector. *)
  (match decisions with
  | (_, first) :: rest ->
    List.iter (fun (_, v) -> Alcotest.(check bool) "same vector" true (v = first)) rest;
    (* Honest slots carry the true inputs (passive faults broadcast
       honestly too in this run). *)
    Array.iteri
      (fun i slot ->
        if not (Array.mem i faulty) then
          Alcotest.(check (option int)) "honest slot" (Some inputs.(i)) slot)
      first
  | [] -> Alcotest.fail "no decisions");
  ()

let test_interactive_consistency_silent_faults () =
  let n = 8 and t = 3 in
  let inputs = Array.init n (fun i -> i * 10) in
  let faulty = [| 2; 5 |] in
  let decisions =
    B.run_interactive_consistency ~t ~faulty ~inputs
      ~adversary:(fun _ -> Bap_sim.Adversary.silent) ()
  in
  match decisions with
  | (_, first) :: rest ->
    List.iter (fun (_, v) -> Alcotest.(check bool) "same vector" true (v = first)) rest;
    Alcotest.(check (option int)) "silent sender delivers nothing" None first.(2)
  | [] -> Alcotest.fail "no decisions"

let prop_dolev_strong =
  qcheck ~count:30 ~name:"Dolev-Strong agreement, t < n/2"
    QCheck2.Gen.(
      let* n = int_range 5 13 in
      let t = max 1 ((n - 1) / 2) in
      let* f = int_range 0 t in
      let* seed = int_range 0 1_000_000 in
      return (n, t, f, seed))
    (fun (n, t, f, seed) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let inputs = Array.init n (fun _ -> Rng.int rng 2) in
      let s = B.run_dolev_strong ~t ~faulty ~inputs ~adversary:(fun _ -> Bap_sim.Adversary.silent) () in
      s.B.agreement && s.B.validity)

(* Faulty senders that reveal each message to a third of the recipients,
   drawn afresh per message: honest processes first see a faulty value
   in different rounds. *)
let selective_reveal seed : B.S.W.t Adversary.t =
  {
    Adversary.name = "selective-reveal";
    make =
      (fun ~n ~faulty:_ ->
        let rng = Rng.create seed in
        fun _view ~src:_ outbox ->
          Adversary.per_recipient ~n
            (fun ~dst:_ m -> if Rng.int rng 3 = 0 then [ m ] else [])
            outbox);
  }

(* Faulty processes pass chains along the faulty ids in ascending order:
   in round r < f each sends only to the r-th (counted from 0), and in
   round f only to the lowest honest id. The lowest faulty id's chain of
   length f thus first reaches an honest process in round f, which must
   relay it to everyone with f+1 signatures. *)
let late_reveal : B.S.W.t Adversary.t =
  {
    Adversary.name = "late-reveal";
    make =
      (fun ~n ~faulty ->
        let ids = Array.copy faulty in
        Array.sort Int.compare ids;
        let f = Array.length ids in
        let target = List.find (fun i -> not (Array.mem i ids)) (List.init n Fun.id) in
        fun view ~src:_ outbox ->
          let r = view.Adversary.round in
          let only = if r < f then ids.(r) else if r = f then target else -1 in
          Adversary.per_recipient ~n (fun ~dst m -> if dst = only then [ m ] else []) outbox);
  }

let prop_dolev_strong_revealing =
  qcheck ~count:40 ~name:"Dolev-Strong under revealing faulty senders"
    QCheck2.Gen.(
      let* n = int_range 5 13 in
      let t = (n - 1) / 2 in
      let* f = int_range 0 t in
      let* seed = int_range 0 1_000_000 in
      return (n, t, f, seed))
    (fun (n, t, f, seed) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let inputs = Array.init n (fun _ -> Rng.int rng 2) in
      let first_faulty = Array.fold_left min n faulty in
      let holds adversary ~late =
        let adversary _ = adversary in
        let s = B.run_dolev_strong ~t ~faulty ~inputs ~adversary () in
        let vectors = B.run_interactive_consistency ~t ~faulty ~inputs ~adversary () in
        s.B.agreement && s.B.validity
        &&
        match vectors with
        | [] -> false
        | (_, v) :: rest ->
          List.for_all (fun (_, w) -> w = v) rest
          && Array.for_all Fun.id
               (Array.mapi (fun i slot -> Array.mem i faulty || slot = Some inputs.(i)) v)
          && ((not late) || f = 0 || v.(first_faulty) = Some inputs.(first_faulty))
      in
      holds (selective_reveal seed) ~late:false && holds late_reveal ~late:true)

let suite =
  [
    Alcotest.test_case "early-stopping baseline" `Quick test_es_baseline;
    Alcotest.test_case "plain phase king" `Quick test_phase_king_baseline;
    Alcotest.test_case "Dolev-Strong beyond n/3" `Quick test_dolev_strong_baseline;
    Alcotest.test_case "Dolev-Strong validity" `Quick test_dolev_strong_validity;
    prop_es_baseline;
    prop_dolev_strong;
    prop_dolev_strong_revealing;
    Alcotest.test_case "interactive consistency" `Quick test_interactive_consistency;
    Alcotest.test_case "interactive consistency, silent faults" `Quick
      test_interactive_consistency_silent_faults;
  ]
