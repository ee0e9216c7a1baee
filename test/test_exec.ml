(* The execution engine (lib/exec): work-stealing pool semantics,
   parallel determinism of the experiment cells, and replay from the
   sweep journal. *)

module Pool = Bap_exec.Pool
module Plan = Bap_exec.Plan
module Engine = Bap_exec.Engine
module Journal = Bap_exec.Journal
module Rng = Bap_sim.Rng

(* ---------- pool ---------- *)

let test_pool_runs_all_in_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let tasks = Array.init 100 (fun i () -> i * i) in
      let results = Pool.run_all pool tasks in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "slot matches task" (i * i) v
          | Error _ -> Alcotest.fail "unexpected task error")
        results)

let test_pool_inline_matches_parallel () =
  let mk () = Array.init 50 (fun i () -> Printf.sprintf "r%d" (i * 3)) in
  let serial = Pool.with_pool ~jobs:1 (fun p -> Pool.run_all p (mk ())) in
  let par = Pool.with_pool ~jobs:8 (fun p -> Pool.run_all p (mk ())) in
  Alcotest.(check bool) "same results" true (serial = par)

exception Boom of int

let test_pool_survives_worker_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let tasks =
        Array.init 20 (fun i () -> if i mod 5 = 0 then raise (Boom i) else i)
      in
      let results = Pool.run_all pool tasks in
      Array.iteri
        (fun i r ->
          match (r, i mod 5 = 0) with
          | Error (Boom j), true -> Alcotest.(check int) "own exception" i j
          | Ok v, false -> Alcotest.(check int) "own result" i v
          | _ -> Alcotest.fail "exception landed in the wrong slot")
        results;
      (* The failing batch must not wedge or poison the pool. *)
      let again = Pool.run_all pool (Array.init 10 (fun i () -> i + 1)) in
      Array.iteri
        (fun i r -> Alcotest.(check bool) "pool reusable" true (r = Ok (i + 1)))
        again)

let test_pool_shutdown_is_clean_and_final () =
  let pool = Pool.create ~jobs:4 in
  ignore (Pool.run_all pool (Array.init 8 (fun i () -> i)));
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "after shutdown"
    (Invalid_argument "Pool.run_all: pool is shut down") (fun () ->
      ignore (Pool.run_all pool [| (fun () -> 0) |]))

(* Regression pin for the ?on_result callback contract the serve
   dispatcher leans on: the hook fires exactly once per slot, with the
   slot's own task index and final value, at every --jobs level. The
   *arrival order* of callbacks is schedule-dependent and deliberately
   unasserted; the (index -> value) mapping must not be. *)
let test_pool_on_result_deterministic () =
  let observe ~jobs =
    let mu = Mutex.create () in
    let seen = ref [] in
    let fired = Array.make 60 0 in
    Pool.with_pool ~jobs (fun pool ->
        let tasks =
          Array.init 60 (fun i () ->
              if i mod 7 = 3 then raise (Boom i) else i * 11)
        in
        let results =
          Pool.run_all pool tasks ~on_result:(fun i ->
              Mutex.lock mu;
              fired.(i) <- fired.(i) + 1;
              seen := i :: !seen;
              Mutex.unlock mu)
        in
        Array.iter
          (fun c -> Alcotest.(check int) "fired exactly once" 1 c)
          fired;
        (* The callback ran after the slot write: pairing each index
           with its final slot value must agree across jobs levels. *)
        List.map
          (fun i ->
            ( i,
              match results.(i) with
              | Ok v -> string_of_int v
              | Error e -> Printexc.to_string e ))
          (List.sort compare !seen))
  in
  Alcotest.(check bool)
    "same fingerprint->result mapping at --jobs 1 and --jobs 8" true
    (observe ~jobs:1 = observe ~jobs:8)

(* ---------- parallel determinism on real simulation work ---------- *)

(* A miniature experiment: each cell derives its own Rng from its key
   and runs a real unauthenticated execution, like every E* cell does. *)
let sim_plan () =
  let module V = Bap_core.Value.Int in
  let module S = Bap_core.Stack.Make (V) in
  let n = 13 in
  let t = (n - 1) / 3 in
  let cell seed =
    Plan.row_cell (Printf.sprintf "seed=%d" seed) (fun () ->
        let rng = Rng.create seed in
        let f = Rng.int rng (t + 1) in
        let faulty = Array.init f Fun.id in
        let inputs = Array.init n (fun _ -> Rng.int rng 2) in
        let advice = Bap_prediction.Gen.perfect ~n ~faulty in
        let o =
          S.run_unauth ~t ~faulty ~inputs ~advice ~adversary:Bap_sim.Adversary.silent ()
        in
        [
          string_of_int (S.decision_round o);
          string_of_int o.S.R.rounds;
          string_of_int o.S.R.honest_sent;
          string_of_bool (S.agreement o);
        ])
  in
  {
    Plan.exp_id = "TEST";
    scope = "unit";
    cells = List.map cell (List.init 12 (fun i -> 100 + i));
    render = ignore;
  }

let collect plan ~jobs =
  let rows = ref [] in
  let plan = { plan with Plan.render = (fun results -> rows := results) } in
  Pool.with_pool ~jobs (fun pool -> ignore (Engine.run ~pool [ plan ]));
  !rows

let test_parallel_determinism () =
  let serial = collect (sim_plan ()) ~jobs:1 in
  let par = collect (sim_plan ()) ~jobs:8 in
  Alcotest.(check bool) "rows non-empty" true (serial <> []);
  Alcotest.(check bool) "--jobs 1 = --jobs 8" true (serial = par)

(* ---------- journal replay ---------- *)

(* Unique per call without reading the clock: pid + an in-process
   counter is collision-free and keeps the test binary deterministic. *)
let temp_seq = Atomic.make 0

let temp_journal_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bap-exec-journal-%d-%d" (Unix.getpid ())
       (Atomic.fetch_and_add temp_seq 1))

(* The second field carries a tab and a newline, so replayed rows also
   check the journal's row encoding escapes them. *)
let counting_plan counter =
  let cell k =
    Plan.row_cell (Printf.sprintf "k=%d" k) (fun () ->
        incr counter;
        [ string_of_int (k * 7); Printf.sprintf "tab\there nl\nthere %d" k ])
  in
  {
    Plan.exp_id = "TESTC";
    scope = "unit";
    cells = List.map cell [ 1; 2; 3; 4; 5 ];
    render = ignore;
  }

(* One Engine.run over a journal opened in resume mode, as bap_tables
   opens it: the rendered rows, the stats, and how many cells ran. *)
let run_journaled ~path ~fingerprint =
  let ran = ref 0 in
  let rows = ref [] in
  let plan = { (counting_plan ran) with Plan.render = (fun r -> rows := r) } in
  let j = Journal.open_ ~resume:true ~path ~fingerprint () in
  let stats = Engine.run ~journal:j [ plan ] in
  Journal.close j;
  (!rows, stats, !ran)

let test_journal_replays_same_build () =
  let path = temp_journal_path () in
  let cold, s0, ran0 = run_journaled ~path ~fingerprint:"code-A" in
  Alcotest.(check int) "cold run computes every cell" 5 ran0;
  Alcotest.(check int) "cold run reports no hits" 0 s0.Engine.journal_hits;
  let warm, s1, ran1 = run_journaled ~path ~fingerprint:"code-A" in
  Alcotest.(check int) "same build computes nothing" 0 ran1;
  Alcotest.(check int) "same build replays every cell" 5 s1.Engine.journal_hits;
  Alcotest.(check bool) "replayed rows equal computed rows" true (warm = cold);
  (* A new code fingerprint invalidates the whole journal. *)
  let fresh, s2, ran2 = run_journaled ~path ~fingerprint:"code-B" in
  Alcotest.(check int) "new build recomputes every cell" 5 ran2;
  Alcotest.(check int) "no stale hits across builds" 0 s2.Engine.journal_hits;
  Alcotest.(check bool) "recomputed rows identical" true (fresh = cold);
  Sys.remove path

(* Damage inside the file, not at its tail: the digest of the third
   record fails, so the two records before it replay and the engine
   recomputes the rest. *)
let test_journal_mid_file_flip () =
  let path = temp_journal_path () in
  let cold, _, _ = run_journaled ~path ~fingerprint:"code-A" in
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* Each record is a "rec ..." header line followed by its payload. *)
  let rec record_after from =
    if String.sub text from 5 = "\nrec " then from + 1 else record_after (from + 1)
  in
  let third = record_after (record_after (record_after 0)) in
  let payload = String.index_from text third '\n' + 1 in
  let b = Bytes.of_string text in
  Bytes.set b payload (Char.chr (Char.code (Bytes.get b payload) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let resumed, s, ran = run_journaled ~path ~fingerprint:"code-A" in
  Alcotest.(check int) "records before the flip replay" 2 s.Engine.journal_hits;
  Alcotest.(check int) "the rest are recomputed" 3 ran;
  Alcotest.(check bool) "rows identical to the cold run" true (resumed = cold);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "pool: results land in task order" `Quick test_pool_runs_all_in_order;
    Alcotest.test_case "pool: inline = parallel" `Quick test_pool_inline_matches_parallel;
    Alcotest.test_case "pool: survives worker exception" `Quick
      test_pool_survives_worker_exception;
    Alcotest.test_case "pool: shutdown clean, idempotent, final" `Quick
      test_pool_shutdown_is_clean_and_final;
    Alcotest.test_case "pool: on_result once per slot, jobs 1 = jobs 8" `Quick
      test_pool_on_result_deterministic;
    Alcotest.test_case "engine: --jobs 1 = --jobs 8 on real cells" `Quick
      test_parallel_determinism;
    Alcotest.test_case "journal: same build replays, new build recomputes"
      `Quick test_journal_replays_same_build;
    Alcotest.test_case "journal: flipped byte mid-file keeps the prefix" `Quick
      test_journal_mid_file_flip;
  ]
