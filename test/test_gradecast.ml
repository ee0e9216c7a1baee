(* The signed n-dealer gradecast underlying the authenticated graded
   consensus: per-dealer validity and the level-2 coherence property,
   under dealer equivocation and selective certificate revelation. *)

open Helpers
module W = S.W

let run_gradecast ?adversary ~n ~t ~faulty inputs =
  let pki = Pki.create ~n in
  let adversary =
    match adversary with Some make -> make pki | None -> Adversary.passive
  in
  let outcome =
    run_protocol ~adversary ~n ~faulty (fun ctx ->
        let i = S.R.id ctx in
        S.Graded_auth.gradecast ctx ~pki ~key:(Pki.key pki i) ~t ~tag:2 inputs.(i))
  in
  S.R.honest_decisions outcome

let test_honest_dealers_level2 () =
  let n = 9 and t = 4 in
  let inputs = Array.init n (fun i -> i * 3) in
  let faulty = [| 0; 2 |] in
  let decisions = run_gradecast ~n ~t ~faulty inputs in
  List.iter
    (fun (_, deliveries) ->
      Array.iteri
        (fun d slot ->
          if not (Array.mem d faulty) then
            Alcotest.(check (option (pair int int)))
              (Printf.sprintf "dealer %d at level 2" d)
              (Some (inputs.(d), 2))
              slot)
        deliveries)
    decisions

let test_silent_dealer_is_bot () =
  let n = 9 and t = 4 in
  let inputs = Array.init n (fun i -> i) in
  let decisions =
    run_gradecast ~adversary:(fun _ -> Adversary.silent) ~n ~t ~faulty:[| 3 |] inputs
  in
  List.iter
    (fun (_, deliveries) ->
      Alcotest.(check (option (pair int int))) "silent dealer" None deliveries.(3))
    decisions

(* An equivocating dealer signs different values for different halves. *)
let equivocating_dealer pki : Helpers.S.W.t Bap_sim.Adversary.t =
  Adversary.
    {
      name = "gcast-equivocator";
      make =
        (fun ~n ~faulty ->
          let keys = Hashtbl.create 4 in
          Array.iter (fun j -> Hashtbl.replace keys j (Pki.key pki j)) faulty;
          fun _view ~src ->
            per_recipient ~n (fun ~dst -> function
              | W.Gcast_init (tg, sv) when sv.W.sv_dealer = src ->
                let v = if dst mod 2 = 0 then 500 else 600 in
                let key = Hashtbl.find keys src in
                [
                  W.Gcast_init
                    ( tg,
                      {
                        W.sv_dealer = src;
                        sv_value = v;
                        sv_sig = Pki.sign key (W.dealer_payload ~tag:tg ~dealer:src v);
                      } );
                ]
              | m -> [ m ]));
    }

let prop_level2_coherence =
  qcheck ~count:40 ~name:"gradecast: level 2 anywhere forces same value everywhere"
    QCheck2.Gen.(
      let* n = int_range 5 13 in
      let t = max 1 ((n - 1) / 2) in
      let* f = int_range 0 t in
      let* seed = int_range 0 1_000_000 in
      let* which = int_range 0 2 in
      return (n, t, f, seed, which))
    (fun (n, t, f, seed, which) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let inputs = Array.init n (fun _ -> Rng.int rng 4) in
      let adversary pki =
        match which with
        | 0 -> Adversary.passive
        | 1 -> Adversary.silent
        | _ -> equivocating_dealer pki
      in
      let decisions = run_gradecast ~adversary ~n ~t ~faulty inputs in
      (* For each dealer: if any honest process delivered (v, 2), every
         honest process delivered v at level >= 1. *)
      List.for_all
        (fun d ->
          let level2 =
            List.find_map
              (fun (_, ds) ->
                match ds.(d) with Some (v, 2) -> Some v | _ -> None)
              decisions
          in
          match level2 with
          | None -> true
          | Some v ->
            List.for_all
              (fun (_, ds) ->
                match ds.(d) with Some (w, l) -> w = v && l >= 1 | None -> false)
              decisions)
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "honest dealers delivered at level 2" `Quick
      test_honest_dealers_level2;
    Alcotest.test_case "silent dealer delivers bot" `Quick test_silent_dealer_is_bot;
    prop_level2_coherence;
  ]
