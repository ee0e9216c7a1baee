(* The supervision layer (lib/exec/supervisor + journal + the engine's
   degraded mode): chaos-injected sweeps recover to identical output at
   any --jobs, kill-and-resume via the journal is byte-identical, retry
   ledgers are deterministic per seed, and budget exhaustion degrades
   the table instead of aborting the sweep. *)

module Pool = Bap_exec.Pool
module Plan = Bap_exec.Plan
module Engine = Bap_exec.Engine
module Journal = Bap_exec.Journal
module Supervisor = Bap_exec.Supervisor
module Harness = Bap_chaos.Harness
module Table = Bap_stats.Table

(* Unique per call without reading the clock (D002): pid + counter. *)
let temp_seq = Atomic.make 0

let temp_path prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ())
       (Atomic.fetch_and_add temp_seq 1))

(* An 8-cell plan of real computation, keyed k=0..k=7. *)
let plan () =
  let cell k =
    Plan.cell (Printf.sprintf "k=%d" k) (fun () ->
        let rng = Bap_sim.Rng.create (1000 + k) in
        [ [ string_of_int k; string_of_int (Bap_sim.Rng.int rng 1_000_000) ] ])
  in
  {
    Plan.exp_id = "TESTS";
    scope = "unit";
    cells = List.map cell (List.init 8 Fun.id);
    render = ignore;
  }

let collect ?journal ?supervisor ~jobs () =
  let rows = ref [] in
  let p = { (plan ()) with Plan.render = (fun r -> rows := r) } in
  let stats =
    Pool.with_pool ~jobs (fun pool ->
        Engine.run ~pool ?journal ?supervisor [ p ])
  in
  (!rows, stats)

let chaos_config ?(retries = 3) ?(timeout_s = Some 0.05) ?(seed = 7) h =
  { Supervisor.retries; timeout_s; seed; inject = Some (Harness.decide h) }

(* (a) Determinism under injected faults: jobs=1 equals jobs=8 equals
   the fault-free run, because the default schedule only faults the
   first two attempts of any cell. *)
let test_chaos_jobs1_equals_jobs8 () =
  let baseline, _ = collect ~jobs:1 () in
  let run_chaos jobs =
    let h = Harness.create ~crash_pct:40 ~hang_pct:20 ~faulty_attempts:2 ~seed:7 () in
    Supervisor.with_supervisor (chaos_config h) (fun sup ->
        collect ~supervisor:sup ~jobs ())
  in
  let rows1, s1 = run_chaos 1 in
  let rows8, s8 = run_chaos 8 in
  Alcotest.(check bool) "rows non-empty" true (baseline <> []);
  Alcotest.(check bool) "chaos jobs=1 = fault-free" true (rows1 = baseline);
  Alcotest.(check bool) "chaos jobs=8 = fault-free" true (rows8 = baseline);
  Alcotest.(check bool) "no quarantine at jobs=1" false (Engine.degraded s1);
  Alcotest.(check bool) "no quarantine at jobs=8" false (Engine.degraded s8);
  Alcotest.(check bool) "faults actually fired" true (s1.Engine.retried > 0)

(* (b) Kill-and-resume: truncate the journal mid-file (what SIGKILL
   leaves behind, including a torn record) and resume — rows identical,
   only the missing cells recomputed. *)
let test_journal_kill_and_resume () =
  let jpath = temp_path "bap-journal-test" in
  let fingerprint = "test-build" in
  let j1 = Journal.open_ ~path:jpath ~fingerprint () in
  let baseline, s0 = collect ~journal:j1 ~jobs:2 () in
  Journal.close j1;
  Alcotest.(check int) "all cells executed once" 8 s0.Engine.executed;
  (* Simulate the kill: keep ~60% of the bytes, tearing the last record. *)
  let size = (Unix.stat jpath).Unix.st_size in
  Unix.truncate jpath (size * 6 / 10);
  let j2 = Journal.open_ ~resume:true ~path:jpath ~fingerprint () in
  let resumed = Journal.entries j2 in
  Alcotest.(check bool) "journal kept a strict prefix" true
    (resumed > 0 && resumed < 8);
  let rows2, s2 = collect ~journal:j2 ~jobs:2 () in
  Journal.close j2;
  Alcotest.(check bool) "resumed rows byte-identical" true (rows2 = baseline);
  Alcotest.(check int) "journal hits = surviving prefix" resumed
    s2.Engine.journal_hits;
  Alcotest.(check int) "only the lost cells re-ran" (8 - resumed)
    s2.Engine.executed;
  (* Third run: everything now journaled, nothing executes. *)
  let j3 = Journal.open_ ~resume:true ~path:jpath ~fingerprint () in
  let rows3, s3 = collect ~journal:j3 ~jobs:1 () in
  Journal.close j3;
  Alcotest.(check bool) "fully-journaled rows identical" true (rows3 = baseline);
  Alcotest.(check int) "nothing re-ran" 0 s3.Engine.executed;
  (* A journal from another build must be discarded wholesale. *)
  let j4 = Journal.open_ ~resume:true ~path:jpath ~fingerprint:"other-build" () in
  Alcotest.(check int) "stale fingerprint loads nothing" 0 (Journal.entries j4);
  Journal.close j4;
  Sys.remove jpath

(* Concurrent appends from many domains: the dedup table must be
   serialised by the journal lock (OCaml 5 Hashtbl is not domain-safe),
   and signal_close must stay safe and idempotent alongside close. *)
let test_journal_concurrent_append () =
  let jpath = temp_path "bap-journal-conc" in
  let fingerprint = "test-build" in
  let j = Journal.open_ ~path:jpath ~fingerprint () in
  let per_domain = 200 and domains = 6 in
  let worker d () =
    for i = 0 to per_domain - 1 do
      (* Half the addresses are shared across domains so the dedup path
         runs under real contention, not just the happy path. *)
      let addr =
        if i mod 2 = 0 then Printf.sprintf "shared-%d" i
        else Printf.sprintf "own-%d-%d" d i
      in
      Journal.append j addr [ [ string_of_int d; string_of_int i ] ]
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  let expected = (per_domain / 2) + (domains * per_domain / 2) in
  Alcotest.(check int) "every distinct address recorded once" expected
    (Journal.entries j);
  Journal.signal_close j;
  Journal.signal_close j;
  Journal.close j;
  (* What signal_close left on disk is a valid resumable journal. *)
  let j2 = Journal.open_ ~resume:true ~path:jpath ~fingerprint () in
  Alcotest.(check int) "resume sees every record" expected (Journal.entries j2);
  Journal.close j2;
  Sys.remove jpath

(* (c) Retry ledgers are a pure function of the seed. *)
let test_ledger_deterministic () =
  let run () =
    let h = Harness.create ~crash_pct:40 ~hang_pct:20 ~faulty_attempts:2 ~seed:7 () in
    Supervisor.with_supervisor (chaos_config h) (fun sup ->
        let _, stats = collect ~supervisor:sup ~jobs:4 () in
        stats.Engine.ledgers)
  in
  let l1 = run () and l2 = run () in
  Alcotest.(check bool) "some cell failed at least once" true
    (List.exists (fun (_, l) -> l <> []) l1);
  Alcotest.(check bool) "ledgers identical across re-runs" true (l1 = l2);
  let show (cid, l) = Format.asprintf "%s: %a" cid Supervisor.pp_ledger l in
  Alcotest.(check (list string))
    "ledger text identical" (List.map show l1) (List.map show l2);
  (* And the backoff values themselves are pure. *)
  List.iter
    (fun attempt ->
      Alcotest.(check int)
        (Printf.sprintf "backoff attempt %d pure" attempt)
        (Supervisor.backoff_ms ~seed:7 ~key:"TESTS/unit/k=3" ~attempt)
        (Supervisor.backoff_ms ~seed:7 ~key:"TESTS/unit/k=3" ~attempt))
    [ 0; 1; 2; 3 ]

(* (d) Budget exhaustion quarantines the cell and degrades the table —
   the sweep still completes and renders the other seven cells. *)
let test_quarantine_degrades_not_aborts () =
  let inject ~key ~attempt:_ =
    (* One cell is doomed on every attempt; the rest run clean. *)
    if String.length key >= 3 && String.sub key (String.length key - 3) 3 = "k=3"
    then Some Supervisor.Inject_crash
    else None
  in
  let config =
    { Supervisor.retries = 1; timeout_s = None; seed = 0; inject = Some inject }
  in
  let rows, stats =
    Supervisor.with_supervisor config (fun sup -> collect ~supervisor:sup ~jobs:4 ())
  in
  Alcotest.(check bool) "sweep completed degraded" true (Engine.degraded stats);
  Alcotest.(check (list (pair string string)))
    "exactly the doomed cell quarantined"
    [ ("TESTS", "k=3") ]
    stats.Engine.quarantined;
  Alcotest.(check int) "the other seven cells rendered" 7 (List.length rows);
  Alcotest.(check bool) "k=3 absent from render input" true
    (not (List.mem_assoc "k=3" rows));
  (* Its ledger shows both attempts died the typed way. *)
  (match List.assoc_opt "TESTS/unit/k=3" stats.Engine.ledgers with
  | Some ledger ->
    Alcotest.(check int) "1 try + 1 retry" 2 (List.length ledger);
    List.iter
      (fun r ->
        match r.Supervisor.kind with
        | Supervisor.Crashed _ -> ()
        | Supervisor.Timed_out _ -> Alcotest.fail "expected Crashed")
      ledger
  | None -> Alcotest.fail "quarantined cell has no ledger");
  let banner = Table.degraded_banner ~exp_id:"TESTS" ~quarantined:[ "k=3" ] in
  Alcotest.(check bool) "banner says DEGRADED" true
    (String.length banner > 0
    &&
    let re = "DEGRADED" in
    let rec find i =
      i + String.length re <= String.length banner
      && (String.sub banner i (String.length re) = re || find (i + 1))
    in
    find 0)

(* A real (not injected) hang: the cell loops on Supervisor.tick and the
   watchdog cancels it past the deadline. *)
let test_watchdog_cancels_cooperative_hang () =
  let config =
    { Supervisor.retries = 0; timeout_s = Some 0.05; seed = 0; inject = None }
  in
  Supervisor.with_supervisor config (fun sup ->
      match
        Supervisor.supervise sup ~key:"hang" (fun () ->
            while true do
              Supervisor.tick ();
              Unix.sleepf 0.001
            done)
      with
      | Supervisor.Completed _ -> Alcotest.fail "hung cell cannot complete"
      | Supervisor.Quarantined { ledger } -> (
        match ledger with
        | [ { Supervisor.kind = Supervisor.Timed_out t; _ } ] ->
          Alcotest.(check (float 0.001)) "deadline recorded" 0.05 t
        | _ -> Alcotest.fail "expected exactly one Timed_out attempt"))

(* A real raise (not injected) is retried and recovers. *)
let test_real_crash_recovers () =
  let attempts = Atomic.make 0 in
  let config =
    { Supervisor.retries = 2; timeout_s = None; seed = 0; inject = None }
  in
  Supervisor.with_supervisor config (fun sup ->
      match
        Supervisor.supervise sup ~key:"flaky" (fun () ->
            if Atomic.fetch_and_add attempts 1 < 2 then failwith "transient";
            42)
      with
      | Supervisor.Completed { value; attempts = n; ledger } ->
        Alcotest.(check int) "value survives" 42 value;
        Alcotest.(check int) "third attempt succeeded" 3 n;
        Alcotest.(check int) "two failures on the ledger" 2 (List.length ledger)
      | Supervisor.Quarantined _ -> Alcotest.fail "budget was sufficient")

let suite =
  [
    Alcotest.test_case "chaos: jobs=1 = jobs=8 = fault-free" `Quick
      test_chaos_jobs1_equals_jobs8;
    Alcotest.test_case "journal: kill, resume, byte-identical" `Quick
      test_journal_kill_and_resume;
    Alcotest.test_case "journal: concurrent append + signal_close" `Quick
      test_journal_concurrent_append;
    Alcotest.test_case "ledger: stable across re-runs of a seed" `Quick
      test_ledger_deterministic;
    Alcotest.test_case "quarantine: DEGRADED table, not abort" `Quick
      test_quarantine_degrades_not_aborts;
    Alcotest.test_case "watchdog: cancels a cooperative hang" `Quick
      test_watchdog_cancels_cooperative_hang;
    Alcotest.test_case "retry: real crash recovers within budget" `Quick
      test_real_crash_recovers;
  ]
