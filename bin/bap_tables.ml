(* CLI: regenerate the experiment tables (E1-E13, see DESIGN.md and
   EXPERIMENTS.md).

   Every experiment cell is an independent deterministic job, so the
   sweep fans out over a work-stealing domain pool and memoises cell
   results content-addressed under results/cache/ (keyed on the binary's
   digest: rebuilding invalidates, re-running hits). The tables on
   stdout are byte-identical whatever --jobs or the cache state; timing
   goes to stderr.

   Every sweep also keeps a write-ahead journal (results/sweep.journal):
   each finished cell is flushed as it completes, so a killed run
   resumes with --resume and reproduces the uninterrupted tables
   exactly. Cells run supervised — crashes and watchdog timeouts are
   retried up to --retries; cells that exhaust the budget are
   quarantined and the sweep finishes DEGRADED (exit 4) with partial
   tables instead of dying. --harness-chaos SEED turns the chaos layer
   against the harness itself.

   Examples:
     dune exec bin/bap_tables.exe                 # quick sweeps
     dune exec bin/bap_tables.exe -- --full       # paper-sized sweeps
     dune exec bin/bap_tables.exe -- --full --jobs 8
     dune exec bin/bap_tables.exe -- --only E5 --no-cache
     dune exec bin/bap_tables.exe -- --resume     # continue a killed sweep
     dune exec bin/bap_tables.exe -- --harness-chaos 7 --timeout 2 *)

open Cmdliner
module Engine = Bap_exec.Engine
module Pool = Bap_exec.Pool
module Cache = Bap_exec.Cache
module Journal = Bap_exec.Journal
module Supervisor = Bap_exec.Supervisor
module Harness = Bap_chaos.Harness
module Tel = Bap_telemetry.Telemetry
module Memprobe = Bap_telemetry.Memprobe

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let shell_quote a =
  let plain = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
    | '-' | '_' | '.' | '/' | '=' | ':' | ',' | '+' | '%' | '@' -> true
    | _ -> false
  in
  if a <> "" && String.for_all plain a then a else Filename.quote a

let resume_command () =
  let args = Array.to_list Sys.argv in
  let args = args @ if List.mem "--resume" args then [] else [ "--resume" ] in
  String.concat " " (List.map shell_quote args)

let run full only jobs no_cache cache_dir retries timeout journal_path no_journal
    resume chaos_seed trace_out alloc_out metrics_json stats_json =
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
  let cache = if no_cache then None else Some (Cache.create ~dir:cache_dir ()) in
  let fingerprint =
    match cache with Some c -> Cache.fingerprint c | None -> Cache.code_fingerprint ()
  in
  let chaos = Option.map (fun seed -> Harness.create ~seed ()) chaos_seed in
  (* Chaos implies a watchdog: injected hangs need a deadline to die by. *)
  let timeout =
    match (timeout, chaos) with None, Some _ -> Some 5.0 | t, _ -> t
  in
  (match (chaos, cache) with
  | Some h, Some c ->
    let damaged = Harness.corrupt_cache h ~dir:(Cache.dir c) in
    if damaged > 0 then Fmt.epr "[chaos] corrupted %d cache shard(s)@." damaged
  | _ -> ());
  let journal =
    if no_journal then None
    else Some (Journal.open_ ~resume ~path:journal_path ~fingerprint ())
  in
  (match journal with
  | Some j when resume ->
    Fmt.epr "[journal] resumed %d cell(s) from %s@." (Journal.entries j)
      (Journal.path j)
  | _ -> ());
  Supervisor.install_exit_handlers
    ~on_signal:(fun ~signal_name ->
      match journal with
      | Some j ->
        (* Non-blocking: the handler may have interrupted Journal.append
           on this very thread, which already holds the journal lock. *)
        Journal.signal_close j;
        Fmt.epr "@.[%s] journal flushed: %d cell(s) in %s@.resume with:  %s@."
          signal_name (Journal.entries j) (Journal.path j) (resume_command ())
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
  let final_stats = ref None in
  let code =
    Supervisor.with_supervisor config (fun supervisor ->
        Pool.with_pool ~jobs (fun pool ->
            let stats =
              match only with
              | None ->
                Some
                  (Bap_experiments.Runner.run_all ~quick ~pool ?cache ?journal
                     ~supervisor ())
              | Some id -> (
                match
                  Bap_experiments.Runner.run_one ~quick ~pool ?cache ?journal
                    ~supervisor id
                with
                | Some stats -> Some stats
                | None ->
                  Fmt.epr "unknown experiment %S; known: %s@." id
                    (String.concat ", "
                       (List.map (fun (i, _, _) -> i) Bap_experiments.Runner.all));
                  exit 1)
            in
            Option.iter Journal.close journal;
            match stats with
            | None -> 0
            | Some s ->
              final_stats := Some s;
              Fmt.epr "[exec] %a@." (fun ppf -> Engine.pp_stats ppf) s;
              List.iter
                (fun (cid, ledger) ->
                  Fmt.epr "[supervisor] %s: %a@." cid
                    (fun ppf -> Supervisor.pp_ledger ppf)
                    ledger)
                s.Engine.ledgers;
              if Engine.degraded s then begin
                List.iter
                  (fun (exp_id, key) ->
                    Fmt.epr "[supervisor] QUARANTINED %s/%s@." exp_id key)
                  s.Engine.quarantined;
                4
              end
              else 0))
  in
  (* Flush the telemetry artifacts before a DEGRADED exit: a partial
     sweep's trace is exactly the one worth inspecting. *)
  (match metrics_json with
  | Some path -> write_file path (Tel.Metrics.to_json (Tel.Metrics.snapshot ()))
  | None -> ());
  (match (stats_json, !final_stats) with
  | Some path, Some s -> write_file path (Engine.stats_json s)
  | _ -> ());
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
  if code <> 0 then exit code

let cmd =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Paper-sized sweeps (slower).")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~doc:"Run a single experiment (E1..E13).")
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
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Recompute every cell, bypassing the result cache.")
  in
  let cache_dir =
    Arg.(
      value
      & opt string Cache.default_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result cache directory.")
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
      & info [ "journal" ] ~docv:"PATH" ~doc:"Write-ahead journal for the sweep.")
  in
  let no_journal =
    Arg.(value & flag & info [ "no-journal" ] ~doc:"Disable the sweep journal.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume a killed sweep from its journal: cells already recorded \
             are replayed, only the rest run. Output is byte-identical to an \
             uninterrupted run.")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "harness-chaos" ] ~docv:"SEED"
          ~doc:
            "Inject worker crashes, hangs, and cache-shard corruption into the \
             harness itself from a seeded schedule. The default schedule only \
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
            "Write Engine.stats (cache/journal hits, retries, quarantined \
             cells, ledgers, wall, jobs) as JSON. Consumable by bap_gate \
             --check-stats.")
  in
  Cmd.v
    (Cmd.info "bap_tables" ~doc:"Regenerate the reproduction experiment tables")
    Term.(
      const run $ full $ only $ jobs $ no_cache $ cache_dir $ retries $ timeout
      $ journal_path $ no_journal $ resume $ chaos_seed $ trace_out $ alloc_out
      $ metrics_json $ stats_json)

let () = exit (Cmd.eval cmd)
