(* Benchmark harness.

   Regenerates every experiment table (E1-E13, the reproduction of the
   paper's theorems - see DESIGN.md and EXPERIMENTS.md), then runs
   Bechamel wall-clock micro-benchmarks, one per protocol of the paper.

   Usage: dune exec bench/main.exe
            [-- --full | --tables-only | --bench-only | --jobs N | --no-cache]
   Default is the quick sweep; --full runs the paper-sized sweeps.
   --jobs N fans the experiment cells out over N domains (lib/exec) and
   additionally reports parallel-vs-serial wall-clock and speedup from
   fresh uncached sweeps. Two other modes: --trace-overhead (the CI
   tracing-cost gate) and --serve (the serve load generator and oracle);
   see --help. A malformed or unknown flag exits 124. *)

open Bap_experiments.Common
open Cmdliner
module Pki = Bap_crypto.Pki
module Engine = Bap_exec.Engine
module Pool = Bap_exec.Pool
module Cache = Bap_exec.Cache
module Tel = Bap_telemetry.Telemetry
module Memprobe = Bap_telemetry.Memprobe

let stage = Bechamel.Staged.stage

(* One micro-benchmark per protocol family, all on the same moderate
   configuration so relative costs are comparable. Each run is a full
   n-process synchronous execution. *)
let benches () =
  let n = 31 in
  let t = (n - 1) / 3 in
  let f = t / 2 in
  let rng = Rng.create 4242 in
  let w = make_workload ~rng ~n ~t ~f ~target_misclassified:2 () in
  let faulty = w.faulty and inputs = w.inputs and advice = w.advice in
  let module T = Bechamel.Test in
  T.make_grouped ~name:"bap"
    [
      T.make ~name:"classify (Alg 2)"
        (stage (fun () ->
             S.R.run ~n ~faulty ~adversary:Adversary.silent (fun ctx ->
                 S.Classify_p.run ctx advice.(S.R.id ctx))));
      T.make ~name:"graded-consensus unauth (Thm 7)"
        (stage (fun () ->
             S.R.run ~n ~faulty ~adversary:Adversary.silent (fun ctx ->
                 S.Graded_unauth.run ctx ~t ~tag:0 inputs.(S.R.id ctx))));
      T.make ~name:"graded-consensus auth (Thm 8)"
        (stage (fun () ->
             let pki = Pki.create ~n in
             S.R.run ~n ~faulty ~adversary:Adversary.silent (fun ctx ->
                 let i = S.R.id ctx in
                 S.Graded_auth.run ctx ~pki ~key:(Pki.key pki i) ~t ~tag:0 inputs.(i))));
      T.make ~name:"conditional BA unauth (Alg 5)"
        (stage (fun () ->
             S.R.run ~n ~faulty ~adversary:Adversary.silent (fun ctx ->
                 let i = S.R.id ctx in
                 let c = S.Classify_p.run ctx advice.(i) in
                 S.Ba_class_unauth.run ctx ~t ~k:1 ~base_tag:0 inputs.(i) c)));
      T.make ~name:"conditional BA auth (Alg 7)"
        (stage (fun () ->
             let pki = Pki.create ~n in
             S.R.run ~n ~faulty ~adversary:Adversary.silent (fun ctx ->
                 let i = S.R.id ctx in
                 let c = S.Classify_p.run ctx advice.(i) in
                 S.Ba_class_auth.run ctx ~pki ~key:(Pki.key pki i) ~t ~k:1 ~base_tag:0
                   inputs.(i) c)));
      T.make ~name:"early-stopping BA (Thm 9)"
        (stage (fun () ->
             S.R.run ~n ~faulty ~adversary:Adversary.silent (fun ctx ->
                 let gc c ~tag v = S.Graded_unauth.run c ~t ~tag v in
                 S.Early_stopping.run ctx ~gc ~gc_rounds:2 ~phases:(t + 1) ~base_tag:0
                   inputs.(S.R.id ctx))));
      T.make ~name:"wrapper unauth (Alg 1, Thm 11)"
        (stage (fun () ->
             S.run_unauth ~t ~faulty ~inputs ~advice ~adversary:Adversary.silent ()));
      T.make ~name:"wrapper auth (Alg 1, Thm 12)"
        (stage (fun () -> S.run_auth ~t ~faulty ~inputs ~advice ()));
      T.make ~name:"dolev-strong BA baseline"
        (stage (fun () -> B.run_dolev_strong ~t ~faulty ~inputs ()));
    ]

let run_benches () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] (benches ()) in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  Printf.printf "\n== Bechamel micro-benchmarks (one full n=31 execution per run) ==\n";
  Hashtbl.fold
    (fun name ols rows ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> (name, ns) :: rows
      | _ -> rows)
    results []
  |> List.sort compare
  |> List.iter (fun (name, ns) ->
         Printf.printf "%-45s %10.2f ms/execution\n" name (ns /. 1e6))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Serve load generator: drive generated instances at the service loop
   (in-process over pipes, or an external daemon's socket with
   --serve-socket) and run the byte-identity oracle — every ok response
   must carry exactly the bytes a serial batch recomputation produces.
   --harness-chaos SEED turns the same run hostile: corrupted payload
   bytes and mid-frame disconnects on the wire, crash/hang injection in
   the server's supervisor. Exit 1 on any oracle failure.

   Client resilience (socket mode): [reconnect] retries a dead server
   with deterministic seeded backoff, [retransmit] re-sends unanswered
   ids on fresh connections, and [exactly_once] tightens the oracle into
   the crash-restart property (no loss, no duplicates). That triple is
   what the serve-crash CI job drives against a SIGKILLed-and-resumed
   daemon. *)
type serve_opts = {
  instances : int;
  n : int;
  socket : string option;
  reconnect : int;
  retransmit : int;
  client_seed : int;
  exactly_once : bool;
  families : Bap_servelib.Instance.family list;
  chaos_seed : int option;
}

let serve_bench
    {
      instances;
      n;
      socket;
      reconnect;
      retransmit;
      client_seed;
      exactly_once;
      families;
      chaos_seed;
    } ~jobs =
  let module Load = Bap_servelib.Load in
  let module Server = Bap_servelib.Server in
  let module Harness = Bap_chaos.Harness in
  let chaos =
    match chaos_seed with
    | None -> None
    | Some seed ->
      (* Disconnects only make sense where reconnecting does (sockets);
         in pipe mode a hangup would just truncate the whole plan.
         Crash/hang rates are milder than the sweep harness defaults:
         every hang costs a full watchdog timeout of wall-clock, and a
         load test runs thousands of instances, not dozens of cells. *)
      let disconnect_pct = if socket = None then 0 else 3 in
      let respond_disconnect_pct = if socket = None then 0 else 2 in
      Some
        (Harness.create ~seed ~crash_pct:6 ~hang_pct:1 ~doomed_pct:2
           ~frame_corrupt_pct:5 ~disconnect_pct ~respond_disconnect_pct ())
  in
  let outcome =
    match socket with
    | Some path ->
      Load.run_socket ?chaos ~reconnect ~retransmit ~seed:client_seed ~path
        ~instances ~families ~n ()
    | None ->
      let inject =
        Option.map
          (fun h ~key ~attempt ->
            match Harness.decide h ~key ~attempt with
            | Some Harness.Crash -> Some Bap_exec.Supervisor.Inject_crash
            | Some Harness.Hang -> Some Bap_exec.Supervisor.Inject_hang
            | None -> None)
          chaos
      in
      let config =
        {
          Server.default_config with
          Server.jobs;
          queue_capacity = max instances 1;
          batch = 256;
          inject;
          (* Short deadline: chaos hangs spin until the watchdog fires,
             so the timeout is pure added wall-clock per injected hang. *)
          timeout_s = Some 0.25;
        }
      in
      Load.run_inproc ?chaos ~config ~instances ~families ~n ()
  in
  Printf.printf "serve: %s\n" (Format.asprintf "%a" Load.pp outcome);
  Printf.printf "serve_throughput: %.0f instances/sec (jobs %d, n %d)\n"
    outcome.Load.per_sec jobs n;
  (match outcome.Load.server with
  | Some s -> print_endline (Server.report s)
  | None -> ());
  match Load.failures ~chaos:(chaos <> None) ~exactly_once outcome with
  | [] ->
    print_endline "serve oracle: PASS";
    0
  | fs ->
    List.iter (fun f -> Printf.printf "serve oracle FAILED: %s\n" f) fs;
    1

(* CI gate: the telemetry spine must cost < 5% wall-clock when recording
   a full JSONL trace of the quick sweep. min-of-3 on each side filters
   scheduler noise; both sides are fresh uncached sweeps so cache state
   cannot tilt the comparison. Exit 1 on regression.

   With [alloc] the "on" side also runs the allocation probe (per-span
   GC deltas folded into metrics, minor_words span attributes) — the
   same budget, so the observatory earns its keep the way tracing does. *)
let trace_overhead ~jobs ~alloc =
  let trace_path = Filename.concat (Filename.get_temp_dir_name ()) "bap_overhead.jsonl" in
  let sweep () =
    Pool.with_pool ~jobs (fun pool ->
        Bap_experiments.Runner.run_all ~quick:true ~pool ~render:false ())
  in
  let min_of_3 f =
    let walls = List.init 3 (fun _ -> (f ()).Engine.wall) in
    List.fold_left Float.min infinity walls
  in
  let off = min_of_3 sweep in
  let on_ =
    min_of_3 (fun () ->
        Tel.install ~wall:true (Tel.Jsonl trace_path);
        if alloc then Memprobe.enable ();
        Fun.protect
          ~finally:(fun () ->
            if alloc then Memprobe.disable ();
            Tel.shutdown ())
          sweep)
  in
  (try Sys.remove trace_path with Sys_error _ -> ());
  let overhead = (on_ -. off) /. Float.max 1e-9 off in
  Printf.printf
    "%s overhead: off %.2fs  on %.2fs  overhead %+.1f%% (budget 5%%)\n"
    (if alloc then "trace+alloc" else "trace")
    off on_ (100. *. overhead);
  if overhead > 0.05 then begin
    Printf.printf "FAILED: %s overhead above budget\n"
      (if alloc then "tracing+allocation-probe" else "tracing");
    exit 1
  end

let main full tables_only bench_only no_cache cache_dir jobs trace_out metrics_json
    trace_overhead_mode alloc serve serve_opts =
  if trace_overhead_mode then begin
    trace_overhead ~jobs ~alloc;
    0
  end
  else if serve then serve_bench serve_opts ~jobs
  else begin
    let quick = not full in
    (match trace_out with
    | Some path -> Tel.install ~wall:true (Tel.Jsonl path)
    | None -> if metrics_json <> None then Tel.install Tel.Counters_only);
    if not bench_only then begin
      Printf.printf "Experiment tables (E1-E13; see DESIGN.md and EXPERIMENTS.md)%s\n"
        (if full then " [full sweeps]" else " [quick sweeps; pass --full for paper-sized]");
      let cache = if no_cache then None else Some (Cache.create ~dir:cache_dir ()) in
      let stats =
        Pool.with_pool ~jobs (fun pool ->
            Bap_experiments.Runner.run_all ~quick ~pool ?cache ())
      in
      Printf.printf "\n== Experiment sweep wall-clock ==\n%s\n"
        (Format.asprintf "%a" Engine.pp_stats stats);
      if jobs > 1 then begin
        (* Fresh, uncached sweeps in both modes: the honest speedup of the
           work-stealing pool on this machine, unpolluted by cache hits. *)
        let timed ~jobs =
          Pool.with_pool ~jobs (fun pool ->
              Bap_experiments.Runner.run_all ~quick ~pool ~render:false ())
        in
        let par = timed ~jobs in
        let ser = timed ~jobs:1 in
        Printf.printf "serial   (--jobs 1): %.2fs\nparallel (--jobs %d): %.2fs\nspeedup: %.2fx\n"
          ser.Engine.wall jobs par.Engine.wall
          (ser.Engine.wall /. Float.max 1e-9 par.Engine.wall)
      end
    end;
    if not tables_only then run_benches ();
    (match metrics_json with
    | Some path -> write_file path (Tel.Metrics.to_json (Tel.Metrics.snapshot ()))
    | None -> ());
    Tel.shutdown ();
    0
  end

let cmd =
  let flag names doc = Arg.(value & flag & info names ~doc) in
  (* Counts keep the historical clamps: at least 1 (or 0 where 0 means
     "off"), but a value that is not an integer is a usage error. *)
  let count ?(min = 1) names ~default ~docv doc =
    Term.(
      const (max min)
      $ Arg.(value & opt int default & info names ~docv ~doc))
  in
  let path names doc =
    Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)
  in
  let family =
    Arg.enum
      Bap_servelib.Instance.
        [ ("unauth", Unauth); ("auth", Auth); ("es", Es); ("pk", Pk) ]
  in
  let serve_opts =
    let make instances n socket reconnect retransmit client_seed exactly_once
        families chaos_seed =
      {
        instances;
        n;
        socket;
        reconnect;
        retransmit;
        client_seed;
        exactly_once;
        families;
        chaos_seed;
      }
    in
    Term.(
      const make
      $ count [ "instances" ] ~default:2000 ~docv:"N" "Instances to generate (--serve)."
      $ count [ "n" ] ~default:4 ~docv:"N" "Processes per instance (--serve)."
      $ Arg.(
          value
          & opt (some string) None
          & info [ "serve-socket" ] ~docv:"PATH"
              ~doc:"Drive an external bap_serve daemon on this socket instead of an in-process server.")
      $ count ~min:0 [ "reconnect" ] ~default:0 ~docv:"N"
          "Socket mode: retry a dead server N times with deterministic seeded backoff."
      $ count ~min:0 [ "retransmit" ] ~default:0 ~docv:"N"
          "Socket mode: re-send unanswered ids on fresh connections up to N times."
      $ count ~min:0 [ "client-seed" ] ~default:0 ~docv:"SEED"
          "Seed of the client's reconnect backoff."
      $ flag [ "exactly-once" ]
          "Tighten the oracle into the crash-restart property: no loss, no duplicates."
      $ Arg.(
          value
          & opt (list family) Bap_servelib.Instance.[ Unauth; Es; Pk ]
          & info [ "families" ] ~docv:"LIST"
              ~doc:"Comma-separated protocol families (unauth, auth, es, pk).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "harness-chaos" ] ~docv:"SEED"
              ~doc:
                "Turn the serve run hostile from a seeded schedule: corrupted payload \
                 bytes, mid-frame disconnects (socket mode), crash/hang injection."))
  in
  Cmd.v
    (Cmd.info "main" ~doc:"Experiment tables, Bechamel micro-benchmarks, and CI benchmark gates")
    Term.(
      const main
      $ flag [ "full" ] "Paper-sized sweeps (slower)."
      $ flag [ "tables-only" ] "Skip the Bechamel micro-benchmarks."
      $ flag [ "bench-only" ] "Skip the experiment tables."
      $ flag [ "no-cache" ] "Recompute every cell, bypassing the result cache."
      $ Arg.(
          value
          & opt string Cache.default_dir
          & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result cache directory.")
      $ count [ "jobs" ] ~default:1 ~docv:"N"
          "Worker domains for the cell sweep (or the in-process server with --serve)."
      $ path [ "trace-out" ] "Write a JSONL telemetry trace of the run."
      $ path [ "metrics-json" ] "Write the merged metrics registry as JSON."
      $ flag [ "trace-overhead" ]
          "CI gate: fail if tracing a fresh quick sweep costs more than 5% wall-clock."
      $ flag [ "alloc" ] "With --trace-overhead, also run the allocation probe."
      $ flag [ "serve" ] "Serve load generator plus byte-identity oracle (exit 1 on failure)."
      $ serve_opts)

let () = exit (Cmd.eval' cmd)
