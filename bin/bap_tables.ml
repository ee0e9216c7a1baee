(* CLI: regenerate the experiment tables (E1-E13, see DESIGN.md and
   EXPERIMENTS.md).

   Every experiment cell is an independent deterministic job, so the
   sweep fans out over a work-stealing domain pool. The tables on stdout
   are byte-identical whatever --jobs or the journal state; timing goes
   to stderr.

   Every sweep keeps a write-ahead journal (results/sweep.journal), keyed
   on the binary's digest: each finished cell is flushed as it
   completes, and cells the journal already holds for this build are
   replayed instead of run. Running the same command again therefore
   recomputes nothing, a killed run continues where it stopped, and a
   rebuild starts the journal over. --no-journal recomputes every cell
   and persists nothing. Cells run supervised — crashes and watchdog
   timeouts are retried up to --retries; cells that exhaust the budget
   are quarantined and the sweep finishes DEGRADED (exit 4) with
   partial tables instead of dying. --harness-chaos SEED turns the chaos
   layer against the harness itself.

   Examples:
     dune exec bin/bap_tables.exe                 # quick sweeps
     dune exec bin/bap_tables.exe -- --full       # paper-sized sweeps
     dune exec bin/bap_tables.exe -- --full --jobs 8
     dune exec bin/bap_tables.exe -- --only E5 --no-journal
     dune exec bin/bap_tables.exe -- --harness-chaos 7 --timeout 2 *)

open Cmdliner
module Engine = Bap_exec.Engine
module Pool = Bap_exec.Pool
module Cache = Bap_exec.Cache
module Journal = Bap_exec.Journal
module Supervisor = Bap_exec.Supervisor
module Harness = Bap_chaos.Harness
module Runner = Bap_experiments.Runner
module Tel = Bap_telemetry.Telemetry
module Memprobe = Bap_telemetry.Memprobe

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* --only: an experiment id, matched case-insensitively, so a mistyped
   id is a usage error before any pool, supervisor or journal exists. *)
let experiment =
  Arg.conv
    ( (fun s ->
        match Runner.find_id s with
        | Some id -> Ok id
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown experiment %S; known: %s" s
                 (String.concat ", " (List.map (fun (id, _, _) -> id) Runner.all))))),
      Fmt.string )

let run full only jobs retries timeout journal_path no_journal chaos_seed
    trace_out alloc_out metrics_json stats_json =
  (* Telemetry writes only to the named files, never stdout, so the
     tables stay byte-identical whether or not tracing is on. *)
  (match (alloc_out, trace_out) with
  | Some path, _ | None, Some path -> Tel.install ~wall:true (Tel.Jsonl path)
  | None, None -> if metrics_json <> None then Tel.install Tel.Counters_only);
  (* --alloc-out: same JSONL trace, plus the allocation probe (spans
     gain minor_words attributes, the metrics registry gains alloc.*
     counters) and — where the runtime supports Memprof — the sampling
     profiler. *)
  if alloc_out <> None then begin
    Memprobe.enable ();
    if not (Memprobe.start_sampling ()) then
      Option.iter
        (fun msg -> Fmt.epr "[alloc] sampling profiler unavailable: %s@." msg)
        (Memprobe.sampling_failure ())
  end;
  let quick = not full in
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  let chaos = Option.map (fun seed -> Harness.create ~seed ()) chaos_seed in
  (* Chaos implies a watchdog: injected hangs need a deadline to die by. *)
  let timeout =
    match (timeout, chaos) with None, Some _ -> Some 5.0 | t, _ -> t
  in
  let journal =
    if no_journal then None
    else
      Some
        (Journal.open_ ~resume:true ~path:journal_path
           ~fingerprint:(Cache.code_fingerprint ()) ())
  in
  (match journal with
  | Some j when Journal.entries j > 0 ->
    Fmt.epr "[journal] %s holds %d cell(s) of this build@." (Journal.path j)
      (Journal.entries j)
  | _ -> ());
  Supervisor.install_exit_handlers
    ~on_signal:(fun ~signal_name ->
      match journal with
      | Some j ->
        (* Non-blocking: the handler may have interrupted Journal.append
           on this very thread, which already holds the journal lock. *)
        Journal.signal_close j;
        Fmt.epr
          "@.[%s] journal flushed: %d cell(s) in %s@.run the same command again \
           to continue@."
          signal_name (Journal.entries j) (Journal.path j)
      | None -> Fmt.epr "@.[%s] no journal in play; nothing to resume@." signal_name)
    ();
  let config =
    {
      Supervisor.retries;
      timeout_s = timeout;
      seed = (match chaos_seed with Some s -> s | None -> 0);
      inject = Option.map Harness.decide chaos;
    }
  in
  let s =
    Supervisor.with_supervisor config (fun supervisor ->
        Pool.with_pool ~jobs (fun pool ->
            Runner.run ~quick ?only ~pool ?journal ~supervisor ()))
  in
  Option.iter Journal.close journal;
  Fmt.epr "[exec] %a@." (fun ppf -> Engine.pp_stats ppf) s;
  List.iter
    (fun (cid, ledger) ->
      Fmt.epr "[supervisor] %s: %a@." cid (fun ppf -> Supervisor.pp_ledger ppf) ledger)
    s.Engine.ledgers;
  List.iter
    (fun (exp_id, key) -> Fmt.epr "[supervisor] QUARANTINED %s/%s@." exp_id key)
    s.Engine.quarantined;
  (* Flush the telemetry artifacts before a DEGRADED exit: a partial
     sweep's trace is exactly the one worth inspecting. *)
  (match metrics_json with
  | Some path -> write_file path (Tel.Metrics.to_json (Tel.Metrics.snapshot ()))
  | None -> ());
  Option.iter (fun path -> write_file path (Engine.stats_json s)) stats_json;
  (* The alloc trace is self-contained (Memprof samples and the
     process-wide total ride along as instants), so `bap_trace alloc`
     can report what share of all allocation its spans explain. Flushed
     after the pool quiesces, so every domain's counters are published. *)
  if alloc_out <> None then begin
    Memprobe.stop_sampling ();
    Memprobe.flush_to_trace ();
    Memprobe.disable ()
  end;
  Tel.shutdown ();
  if Engine.degraded s then exit 4

let cmd =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Paper-sized sweeps (slower).")
  in
  let only =
    Arg.(
      value
      & opt (some experiment) None
      & info [ "only" ] ~docv:"ID" ~doc:"Run a single experiment (E1..E13).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the cell sweep (default: the recommended \
             domain count of this machine). 1 forces the serial path.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts for a crashed or timed-out cell before it is \
             quarantined.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-attempt watchdog deadline. Cooperative: cells observe it at \
             their next supervision tick. Defaults to none (5.0 under \
             --harness-chaos).")
  in
  let journal_path =
    Arg.(
      value
      & opt string Journal.default_path
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Write-ahead journal for the sweep. Cells it already holds for \
             this build are replayed, so re-running a command recomputes \
             nothing and continues a killed sweep; output is byte-identical \
             to an uninterrupted run. A rebuild starts the journal over.")
  in
  let no_journal =
    Arg.(
      value & flag
      & info [ "no-journal" ] ~doc:"Recompute every cell and persist nothing.")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "harness-chaos" ] ~docv:"SEED"
          ~doc:
            "Inject worker crashes and hangs into the harness itself from a \
             seeded schedule. The default schedule only \
             faults early attempts, so the supervised sweep recovers to \
             byte-identical tables.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSONL telemetry trace (Chrome trace-event compatible) of \
             the sweep: round/phase spans from the simulator, cell lifecycle \
             spans from the engine. Analyse with bap_trace. Never touches \
             stdout.")
  in
  let alloc_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "alloc-out" ] ~docv:"FILE"
          ~doc:
            "Like --trace-out, with the allocation probe on: spans carry \
             per-phase/per-cell minor-word deltas, Memprof samples (where the \
             runtime supports them) ride along as instants, and the trace is \
             self-contained for bap_trace alloc. Never touches stdout; table \
             bytes are unchanged.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Write the merged metrics registry (counters, gauges, histograms) \
             as JSON after the sweep.")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Write Engine.stats (journal hits, retries, quarantined \
             cells, ledgers, wall, jobs) as JSON. Consumable by bap_gate \
             --check-stats.")
  in
  Cmd.v
    (Cmd.info "bap_tables" ~doc:"Regenerate the reproduction experiment tables")
    Term.(
      const run $ full $ only $ jobs $ retries $ timeout $ journal_path
      $ no_journal $ chaos_seed $ trace_out $ alloc_out $ metrics_json
      $ stats_json)

let () = exit (Cmd.eval cmd)
