(* CLI: the always-on agreement service, and its load generator.

   The daemon (the default command) reads length-prefixed JSON frames —
   one agreement instance each — from stdin (default) or a Unix-domain
   socket, multiplexes them over the lib/exec domain pool under
   supervision, and writes one response frame per request in arrival
   order. Overload is shed with typed rejections, poisoned instances
   degrade instead of aborting, and SIGTERM/SIGINT drain gracefully
   (finish the accepted backlog, flush telemetry, exit 143/130).

   `bap_serve load` drives generated instances at the service loop
   (in-process over pipes, or a running daemon's --socket) and checks
   the byte-identity oracle; see [load] below.

   Examples:
     dune exec bin/bap_serve.exe < frames.bin > responses.bin
     dune exec bin/bap_serve.exe -- --socket /tmp/bap.sock --jobs 4
     dune exec bin/bap_serve.exe -- load --jobs 4      # in-process load + oracle
     dune exec bin/bap_serve.exe -- load --socket /tmp/bap.sock

   Request payload:  {"id":1,"family":"unauth","n":16,"f":2,"m":0,"seed":7}
   Response payload: {"id":1,"status":"ok","decided":78,...}            *)

open Cmdliner
module Server = Bap_servelib.Server
module Load = Bap_servelib.Load
module Harness = Bap_chaos.Harness
module Tel = Bap_telemetry.Telemetry

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let run socket jobs queue batch retries timeout max_frame chaos_seed kill9_pct
    journal resume flight_capacity flight_dump trace_out metrics_json quiet =
  if resume && journal = None then `Error (true, "--resume requires --journal")
  else begin
    (match trace_out with
    | Some path -> Tel.install ~wall:true (Tel.Jsonl path)
    | None -> if metrics_json <> None then Tel.install Tel.Counters_only);
    let chaos = Option.map (fun seed -> Harness.create ~seed ()) chaos_seed in
    (* A kill9 hit is a real SIGKILL to self: the hard-crash leg of the
       serve-crash CI job. The probe fires at the answer point — work
       done, respond record not yet journaled — which is exactly the
       window --resume must cover. *)
    let kill9 =
      if kill9_pct <= 0 then None
      else begin
        let h =
          Harness.create ~crash_pct:0 ~hang_pct:0 ~kill9_pct
            ~seed:(Option.value ~default:0 chaos_seed)
            ()
        in
        Some
          (fun ~key ->
            if Harness.kill9 h ~key then begin
              Fmt.epr "[serve] chaos: SIGKILL at %s@." key;
              Unix.kill (Unix.getpid ()) Sys.sigkill
            end;
            false)
      end
    in
    let cfg =
      {
        Server.jobs = jobs;
        queue_capacity = max 1 queue;
        batch = max 1 batch;
        retries = max 0 retries;
        timeout_s = timeout;
        max_frame;
        seed = Option.value ~default:0 chaos_seed;
        inject = Option.map Harness.decide chaos;
        journal_path = journal;
        resume;
        kill9;
        flight_capacity = max 1 flight_capacity;
        flight_dump;
      }
    in
    Server.install_signal_handlers ();
    let stats =
      match socket with
      | Some path ->
        if not quiet then
          Fmt.epr "[serve] listening on %s (--jobs %d)@." path cfg.Server.jobs;
        Server.serve_socket cfg ~path
      | None -> Server.serve_fds cfg ~in_fd:Unix.stdin ~out_fd:Unix.stdout
    in
    (match metrics_json with
    | Some path -> write_file path (Tel.Metrics.to_json (Tel.Metrics.snapshot ()))
    | None -> ());
    (* Telemetry flushes before the exit code is decided: an interrupted
       service's trace is exactly the one worth reading. *)
    Tel.shutdown ();
    if not quiet then Fmt.epr "%s@." (Server.report stats);
    `Ok stats.Server.exit_code
  end

(* The load generator and byte-identity oracle: every ok response must
   carry exactly the bytes a serial batch recomputation produces.
   --harness-chaos SEED turns the same run hostile: corrupted payload
   bytes and mid-frame disconnects on the wire, crash/hang injection in
   the in-process server's supervisor. Exit 1 on any oracle failure.

   Client resilience (socket mode): [reconnect] retries a dead server
   with deterministic seeded backoff, [retransmit] re-sends unanswered
   ids on fresh connections, and [exactly_once] tightens the oracle into
   the crash-restart property (no loss, no duplicates). That triple is
   what the serve-crash CI job drives against a SIGKILLed-and-resumed
   daemon. *)
let load instances n socket reconnect retransmit client_seed exactly_once
    families chaos_seed jobs =
  let chaos =
    Option.map
      (fun seed ->
        (* Disconnects only make sense where reconnecting does (sockets);
           in pipe mode a hangup would just truncate the whole plan.
           Crash/hang rates are milder than the sweep harness defaults:
           every hang costs a full watchdog timeout of wall-clock, and a
           load test runs thousands of instances, not dozens of cells. *)
        let disconnect_pct = if socket = None then 0 else 3 in
        let respond_disconnect_pct = if socket = None then 0 else 2 in
        Harness.create ~seed ~crash_pct:6 ~hang_pct:1 ~doomed_pct:2
          ~frame_corrupt_pct:5 ~disconnect_pct ~respond_disconnect_pct ())
      chaos_seed
  in
  let outcome =
    match socket with
    | Some path ->
      Load.run_socket ?chaos ~reconnect ~retransmit ~seed:client_seed ~path
        ~instances ~families ~n ()
    | None ->
      let config =
        {
          Server.default_config with
          Server.jobs;
          queue_capacity = max instances 1;
          batch = 256;
          inject = Option.map Harness.decide chaos;
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

let jobs =
  Term.(
    const (max 1)
    $ Arg.(
        value & opt int 1
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:
              "Worker domains for instance execution (for $(b,load), those \
               of the in-process server)."))

let daemon =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve a Unix-domain socket (clients sequentially) instead of \
             stdin/stdout.")
  in
  let queue =
    Arg.(
      value & opt int 1024
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue capacity. Requests past it are shed with a typed \
             overload rejection, never buffered.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N" ~doc:"Max instances per pool dispatch.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:"Supervised retry budget before an instance degrades.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) (Some 10.)
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Per-attempt watchdog deadline for one instance.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Bap_servelib.Frame.default_max_len
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:
            "Frame payload cap. An oversized length prefix poisons its \
             connection (typed rejection, then close) — the stream cannot \
             be resynchronised past it.")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "harness-chaos" ] ~docv:"SEED"
          ~doc:
            "Inject seeded crashes and hangs into instance attempts; the \
             default schedule faults only early attempts, so supervised \
             retry recovers every instance.")
  in
  let kill9 =
    Arg.(
      value & opt int 0
      & info [ "kill9" ] ~docv:"PCT"
          ~doc:
            "Seeded SIGKILL-self chaos: each instance has a PCT% chance of \
             killing the server dead at its answer point (after execution, \
             before the answer is journaled). Pair with --journal, then \
             restart with --resume — and without --kill9, or the same keys \
             re-fire. Seeded by --harness-chaos (default seed 0).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Write-ahead instance journal: every admitted instance is logged \
             at accept and its answer is flushed to PATH before the response \
             frame is written, so a SIGKILL loses nothing accepted. Flushed \
             is not fsynced: power loss or a kernel crash can still lose \
             answered instances.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the journal's valid prefix before serving: re-dispatch \
             every accepted-unanswered instance and answer retransmits of \
             already-answered ones from the journal, exactly once. Requires \
             --journal.")
  in
  let flight_capacity =
    Arg.(
      value & opt int 256
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:
            "Flight-recorder ring size: the last N service events \
             (admissions, responses, quarantines) are retained in memory for \
             SIGUSR1 dumps and the stats admin frame.")
  in
  let flight_dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Where flight-recorder dumps land beside stderr (SIGUSR1 and \
             quarantine both dump). Defaults to the journal path plus \
             $(b,.flight) when --journal is set.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write a JSONL telemetry trace of the service run.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the merged metrics registry as JSON on exit.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the stderr report.")
  in
  Term.(
    ret
      (const run $ socket $ jobs $ queue $ batch $ retries $ timeout
      $ max_frame $ chaos_seed $ kill9 $ journal $ resume $ flight_capacity
      $ flight_dump $ trace_out $ metrics_json $ quiet))

let load_cmd =
  (* Counts are clamped to at least 1 (or 0 where 0 means "off"), but a
     value that is not an integer is a usage error. *)
  let count ?(min = 1) names ~default ~docv doc =
    Term.(const (max min) $ Arg.(value & opt int default & info names ~docv ~doc))
  in
  let family =
    Arg.enum
      Bap_servelib.Instance.
        [ ("unauth", Unauth); ("auth", Auth); ("es", Es); ("pk", Pk) ]
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Load generator plus byte-identity oracle, in-process or against a \
          running daemon (exit 1 on an oracle failure)")
    Term.(
      const load
      $ count [ "instances" ] ~default:2000 ~docv:"N" "Instances to generate."
      $ count [ "n" ] ~default:4 ~docv:"N" "Processes per instance."
      $ Arg.(
          value
          & opt (some string) None
          & info [ "socket" ] ~docv:"PATH"
              ~doc:
                "Drive an external bap_serve daemon on this socket instead \
                 of an in-process server.")
      $ count ~min:0 [ "reconnect" ] ~default:0 ~docv:"N"
          "Socket mode: retry a dead server N times with deterministic seeded \
           backoff."
      $ count ~min:0 [ "retransmit" ] ~default:0 ~docv:"N"
          "Socket mode: re-send unanswered ids on fresh connections up to N \
           times."
      $ count ~min:0 [ "client-seed" ] ~default:0 ~docv:"SEED"
          "Seed of the client's reconnect backoff."
      $ Arg.(
          value & flag
          & info [ "exactly-once" ]
              ~doc:
                "Tighten the oracle into the crash-restart property: no loss, \
                 no duplicates.")
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
                "Turn the run hostile from a seeded schedule: corrupted \
                 payload bytes, mid-frame disconnects (socket mode), \
                 crash/hang injection (in-process server).")
      $ jobs)

let cmd =
  Cmd.group ~default:daemon
    (Cmd.info "bap_serve"
       ~doc:
         "Always-on agreement service: streamed instances over the domain \
          pool; degrades, sheds, and drains — never aborts")
    [ load_cmd ]

let () = exit (Cmd.eval' cmd)
