(* Scaling shapes as tests: fit the empirical exponent of each
   complexity curve and assert it sits in the band the theory predicts.
   These are the automated versions of the E3/E4/E10 tables, plus
   allocation ratchets on the counted unauthenticated path and on the
   adversary's side of a round. *)

open Helpers
module Gen = Bap_prediction.Gen
module Series = Bap_stats.Series
module B = Bap_baselines.Baseline_runs.Make (Bap_core.Value.Int)
module Memprobe = Bap_telemetry.Memprobe

let test_linear_fit () =
  let slope, intercept = Series.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check (float 0.001)) "slope" 2.0 slope;
  Alcotest.(check (float 0.001)) "intercept" 1.0 intercept

let test_loglog_exact_square () =
  let points = List.map (fun x -> (float_of_int x, float_of_int (x * x))) [ 2; 5; 9; 17 ] in
  Alcotest.(check (float 0.001)) "exponent 2" 2.0 (Series.loglog_slope points)

let unauth_messages n =
  let t = (n - 1) / 3 in
  let f = t / 2 in
  let rng = Rng.create (100 + n) in
  let faulty = Array.init f Fun.id in
  let inputs = Array.init n (fun _ -> Rng.int rng 2) in
  let advice = Gen.perfect ~n ~faulty in
  let o = S.run_unauth ~t ~faulty ~inputs ~advice ~adversary:Adversary.silent () in
  (float_of_int n, float_of_int o.S.R.honest_sent)

let test_unauth_message_exponent () =
  (* Theorem 11: O(n^2 log .) messages; measured exponent must be near
     2 (the log factor is flat for the fixed phase count here). *)
  let points = List.map unauth_messages [ 13; 19; 28; 40 ] in
  let s = Series.loglog_slope points in
  if s < 1.6 || s > 2.4 then Alcotest.failf "message exponent %.2f outside [1.6, 2.4]" s

let test_dolev_strong_rounds_linear_in_t () =
  (* Always exactly t + 1 rounds: slope 1 in t. *)
  let rounds t =
    let n = (2 * t) + 3 in
    let inputs = Array.init n (fun i -> i mod 2) in
    let s = B.run_dolev_strong ~t ~faulty:[| 0 |] ~inputs () in
    (* rounds = t + 1 exactly; subtract the additive constant so the
       log-log exponent is clean. *)
    (float_of_int t, float_of_int (s.B.rounds - 1))
  in
  let s = Series.loglog_slope (List.map rounds [ 2; 4; 8 ]) in
  if s < 0.99 || s > 1.01 then Alcotest.failf "DS round exponent %.2f outside [0.99, 1.01]" s

let test_classify_bits_cubic () =
  (* The advice round alone: n^2 messages of ~n bits each. *)
  let bits n =
    let rng = Rng.create n in
    ignore rng;
    let faulty = [||] in
    let advice = Gen.perfect ~n ~faulty in
    let o =
      S.R.run ~n ~faulty ~adversary:Adversary.passive ~msg_size:S.W.size_bits (fun ctx ->
          S.Classify_p.run ctx advice.(S.R.id ctx))
    in
    (float_of_int n, float_of_int o.S.R.honest_bits)
  in
  let s = Series.loglog_slope (List.map bits [ 32; 64; 128; 256 ]) in
  if s < 2.5 || s > 3.2 then Alcotest.failf "classify bit exponent %.2f outside [2.5, 3.2]" s

(* Allocation ratchet for the counted unauthenticated path: a recipient's
   post-round work must not allocate arrays of n words, which skip the
   minor heap (anything over 256 words is allocated directly on the major
   heap) and made that path quadratic in n. One n=400 wrapper instance
   with t/2 silent faults and perfect advice allocated ~4.0M words (about
   10^4 per process) directly on the major heap while Conciliate, pi and
   the classify tally built n-word arrays per recipient; without them the
   reading is within a few thousand words of zero, either way (the GC
   counters' accounting noise). The bound, 100 words per process, sits
   well above that noise and a hundred times below the quadratic cost.
   Read through Memprobe, as lint D002 asks. *)
let test_counted_unauth_direct_major_words () =
  let n = 400 in
  let t = (n - 1) / 3 in
  let faulty = Array.init (t / 2) Fun.id in
  let inputs = Array.make n 1 in
  let advice = Gen.perfect ~n ~faulty in
  let before = Memprobe.snapshot () in
  let o = S.run_unauth ~t ~faulty ~inputs ~advice ~adversary:Adversary.silent () in
  let d = Memprobe.delta ~before ~after:(Memprobe.snapshot ()) in
  Alcotest.(check bool) "agreement" true (S.agreement o);
  let direct = d.major_words -. d.promoted_words in
  if direct >= float_of_int (100 * n) then
    Alcotest.failf "n=%d: %.0f words allocated directly on the major heap (bound %d)" n direct
      (100 * n)

(* Allocation ratchet for the per-sender readers: on a counted inbox a
   walk costs one step per sender that delivered, never an n-slot view.
   At n=4000 with 40 senders delivering (a group of 30 plus 10 direct
   entries, interleaved), 100 calls of iteri, firsti or votes_mapi
   allocated 0.39M to 0.78M words directly on the major heap while each
   call built one or two n-slot arrays; walking only the senders that
   delivered allocates nothing there (a result of 40 entries stays on
   the minor heap). The bound, n words per 100 calls, is a hundredth of
   one n-slot array per call. The runtime moves promoted words into its
   major-word counter late, at a later major slice, so one window of
   calls can carry a minor heap's promotions from before it: each reader
   is read as the least of five windows, which an n-slot array per call
   would fill in every one. Read through Memprobe, as lint D002 asks. *)
let test_sparse_readers_direct_major_words () =
  let module Inbox = Bap_sim.Inbox in
  let module Bitset = Bap_sim.Bitset in
  let n = 4000 in
  let inbox =
    Inbox.counted ~n
      ~groups:[| ([ 1; 2 ], Bitset.of_list n (List.init 30 (fun i -> (100 * i) + 1))) |]
      ~direct:(Array.init 10 (fun j -> ((400 * j) + 50, [ j ])))
  in
  let votes = Inbox.first inbox ~f:Option.some in
  let heard v =
    let c = ref 0 in
    Inbox.votes_iteri v ~f:(fun _ _ -> incr c);
    !c
  in
  (* Each reader, followed by a count of the senders it reached. *)
  let check name read =
    Alcotest.(check int) (name ^ " reaches every sender that delivered") 40 (read ());
    let window () =
      let before = Memprobe.snapshot () in
      for _ = 1 to 100 do
        ignore (read ())
      done;
      let d = Memprobe.delta ~before ~after:(Memprobe.snapshot ()) in
      d.major_words -. d.promoted_words
    in
    let direct = List.fold_left (fun acc _ -> Float.min acc (window ())) (window ()) [ 1; 2; 3; 4 ] in
    if direct >= float_of_int n then
      Alcotest.failf "%s: %.0f words allocated directly on the major heap by 100 calls (bound %d)"
        name direct n
  in
  check "iteri" (fun () ->
      let c = ref 0 in
      Inbox.iteri inbox ~f:(fun _ _ -> incr c);
      !c);
  check "firsti" (fun () -> heard (Inbox.firsti inbox ~f:(fun _ m -> Some m)));
  check "votes_iteri" (fun () -> heard votes);
  check "votes_mapi" (fun () -> heard (Inbox.votes_mapi votes ~f:(fun _ v -> v)))

(* Allocation ratchet for the adversary's side of a round: the
   strongest unauthenticated adversary must cost about what silent
   faults cost. One n=100 wrapper instance with t=f=33 and a scattered
   advice budget of 4n, read through the calling domain's own counter
   (a process snapshot moves a whole minor heap at a time). While the
   adaptive splitter recounted the round's honest votes once per
   (faulty sender, recipient) pair, it allocated 418 times the minor
   words per round of the same instance with silent faults; counting
   once per round, in the adversary's view stage, it reads 1.3 times.
   The bound is 2 times. *)
let test_splitter_minor_words_per_round () =
  let n = 100 in
  let t = (n - 1) / 3 in
  let faulty = Array.init t Fun.id in
  let rng = Rng.create 11 in
  let inputs = Array.init n (fun _ -> Rng.int rng 2) in
  let advice = Gen.generate ~rng ~n ~faulty ~budget:(4 * n) Gen.Scattered in
  let per_round adversary =
    let before = Memprobe.domain_minor_words () in
    let o = S.run_unauth ~t ~faulty ~inputs ~advice ~adversary () in
    let words = Memprobe.domain_minor_words () -. before in
    Alcotest.(check bool) "agreement" true (S.agreement o);
    words /. float_of_int o.S.R.rounds
  in
  let silent = per_round Adversary.silent in
  let splitter =
    per_round (Adv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun r -> -1_000_000 - r))
  in
  if splitter >= 2. *. silent then
    Alcotest.failf
      "splitter: %.0f minor words per round, %.1f times silent faults' %.0f (bound 2 times)"
      splitter (splitter /. silent) silent

let suite =
  [
    Alcotest.test_case "linear fit" `Quick test_linear_fit;
    Alcotest.test_case "loglog recovers exponent" `Quick test_loglog_exact_square;
    Alcotest.test_case "unauth messages scale as ~n^2" `Quick test_unauth_message_exponent;
    Alcotest.test_case "Dolev-Strong rounds linear in t" `Quick
      test_dolev_strong_rounds_linear_in_t;
    Alcotest.test_case "classify bits scale as ~n^3" `Quick test_classify_bits_cubic;
    Alcotest.test_case "counted unauth allocates no n-word arrays per recipient" `Quick
      test_counted_unauth_direct_major_words;
    Alcotest.test_case "inbox walks allocate no n-slot views" `Quick
      test_sparse_readers_direct_major_words;
    Alcotest.test_case "splitter allocates within 2x of silent faults per round" `Quick
      test_splitter_minor_words_per_round;
  ]
