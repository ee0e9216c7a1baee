(* Differential tests: independent implementations (or instantiations)
   that must behave identically on the same inputs.

   1. Plain unauthenticated graded consensus vs Algorithm 3 with
      L = {0..n-1} and k = t on a system with n = 3t + 1: the thresholds
      coincide (2k+1 = n-t, k+1 = t+1), so outputs must match exactly.
   2. Byzantine broadcast: one sender's instance run alone vs the same
      instance run alongside every other sender's. *)

open Helpers

let prop_gc_plain_vs_core_set =
  qcheck ~count:50 ~name:"plain GC == Alg 3 with full L at n = 3t+1"
    QCheck2.Gen.(
      let* t = int_range 1 5 in
      let n = (3 * t) + 1 in
      let* f = int_range 0 t in
      let* seed = int_range 0 1_000_000 in
      let* which = int_range 0 2 in
      return (n, t, f, seed, which))
    (fun (n, t, f, seed, which) ->
      let rng = Rng.create seed in
      let faulty = random_faulty rng ~n ~f in
      let inputs = Array.init n (fun _ -> Rng.int rng 3) in
      let adversary () =
        match which with
        | 0 -> Adversary.passive
        | 1 -> Adversary.silent
        | _ -> Adv.equivocate ~v0:0 ~v1:1
      in
      let all = List.init n Fun.id in
      let plain =
        run_protocol ~adversary:(adversary ()) ~n ~faulty (fun ctx ->
            S.Graded_unauth.run ctx ~t ~tag:7 inputs.(S.R.id ctx))
      in
      let core =
        run_protocol ~adversary:(adversary ()) ~n ~faulty (fun ctx ->
            S.Graded_core_set.run ctx ~k:t ~l_set:all ~tag:7 inputs.(S.R.id ctx))
      in
      S.R.honest_decisions plain = S.R.honest_decisions core)

let prop_bb_one_vs_all_senders =
  qcheck ~count:40 ~name:"BB one sender == its slot of all senders"
    QCheck2.Gen.(
      let* n = int_range 5 12 in
      let* t = int_range 1 (n / 2) in
      let* k = int_range 1 3 in
      let* sender = int_range 0 (n - 1) in
      let* seed = int_range 0 1_000_000 in
      return (n, t, k, sender, seed))
    (fun (n, t, k, sender, seed) ->
      let rng = Rng.create seed in
      let inputs = Array.init n (fun _ -> Rng.int rng 5) in
      (* Everyone is on the committee (certs for all), no faults: the
         all-senders run must reproduce the one-sender run in its slot. *)
      let make_run senders =
        let pki = Pki.create ~n in
        let cert i =
          Some
            {
              S.W.cc_member = i;
              cc_sigs =
                List.init (t + 1) (fun j ->
                    (j, Pki.sign (Pki.key pki j) (S.W.committee_payload i)));
            }
        in
        run_protocol ~n ~faulty:[||] (fun ctx ->
            let i = S.R.id ctx in
            let out =
              S.Bb_committee.run ctx ~pki ~key:(Pki.key pki i) ~quorum:(t + 1) ~k ~tag:4
                ~cc:(cert i) ~senders inputs.(i)
            in
            out.(sender))
      in
      let one = make_run [ sender ] and all = make_run (List.init n Fun.id) in
      List.map snd (S.R.honest_decisions one) = List.map snd (S.R.honest_decisions all))

let suite = [ prop_gc_plain_vs_core_set; prop_bb_one_vs_all_senders ]
