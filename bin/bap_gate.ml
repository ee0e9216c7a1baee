(* CLI: the bench-regression gate.

   Runs a fixed, deterministic smoke sweep over both protocol stacks and
   the no-prediction baselines — every cell an independent job fanned
   out over the lib/exec domain pool — and compares the resulting
   rounds/messages metrics against a committed baseline
   (BENCH_BASELINE.json):

   - any drift in a correctness-bearing metric (decided round, total
     rounds, honest messages, agreement) FAILS the gate: the sweep is a
     pure function of the seeds, so a changed number means changed
     protocol behaviour, not noise;
   - wall-clock is machine-dependent, so a >20% regression against the
     baseline's reference time only WARNS (as a GitHub Actions
     ::warning:: annotation when running in CI).

   The gate also maintains the bench trajectory (BENCH_HISTORY.jsonl):
   one dated JSON line per run with the sweep wall clock, the serve
   throughput, the n=1000 scale-probe time, the crash-restart recovery
   time, and the allocation probe's minor words per round. Drift
   against the previous trajectory point is warn-only.

   Allocation is gated the same warn-only way: a pinned E1-style probe
   measures domain-local minor words per simulated round — exactly
   reproducible on one machine and one compiler, but legitimately
   different across OCaml versions, so a regression annotates instead
   of failing.

   Usage:
     dune exec bin/bap_gate.exe -- --write             # baseline + trajectory
     dune exec bin/bap_gate.exe -- --check --jobs 2    # CI gate
     dune exec bin/bap_gate.exe -- --check --history BENCH_HISTORY.jsonl *)

open Cmdliner
module Pool = Bap_exec.Pool
module Supervisor = Bap_exec.Supervisor
open Bap_experiments.Common

type metrics = {
  id : string;
  decided : int; (* first decision round; -1 where not applicable *)
  rounds : int;
  msgs : int;
  ok : bool;
}

(* ---------- the probe sweep ---------- *)

let unauth_cell ~n ~f ~m () =
  let t = (n - 1) / 3 in
  let rng = Rng.create ((61 * f) + (7 * m) + n) in
  let w = make_workload ~rng ~n ~t ~f ~target_misclassified:m () in
  let adversary =
    Adv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun r -> -1_000_000 - r)
  in
  let d, rounds, msgs, ok, _ = run_unauth ~adversary w in
  { id = Printf.sprintf "unauth,n=%d,f=%d,m=%d" n f m; decided = d; rounds; msgs; ok }

let auth_cell ~n ~f ~m () =
  let t = max 1 ((9 * n / 20) - 1) in
  let rng = Rng.create ((53 * f) + (11 * m) + n) in
  let w = make_workload ~rng ~n ~t ~f ~target_misclassified:m () in
  let adversary pki = Adv.prediction_attacker_auth ~pki ~v0:0 ~v1:1 in
  let d, rounds, msgs, ok, _ = run_auth ~adversary w in
  { id = Printf.sprintf "auth,n=%d,f=%d,m=%d" n f m; decided = d; rounds; msgs; ok }

let baseline_cell ~proto ~n ~f () =
  let t = (n - 1) / 3 in
  let rng = Rng.create (19 * n + f) in
  let w = make_workload ~rng ~n ~t ~f ~target_misclassified:0 () in
  let r =
    match proto with
    | `Es ->
      B.run_early_stopping ~t ~faulty:w.faulty ~inputs:w.inputs
        ~adversary:Bap_sim.Adversary.silent ()
    | `Pk ->
      B.run_phase_king ~t ~faulty:w.faulty ~inputs:w.inputs
        ~adversary:Bap_sim.Adversary.silent ()
  in
  {
    id =
      Printf.sprintf "%s,n=%d,f=%d" (match proto with `Es -> "es" | `Pk -> "pk") n f;
    decided = r.B.decided_round;
    rounds = r.B.rounds;
    msgs = r.B.messages;
    ok = r.B.agreement;
  }

let sweep_cells () =
  List.concat
    [
      List.concat_map
        (fun n ->
          let t = (n - 1) / 3 in
          List.concat_map
            (fun f -> List.map (fun m -> unauth_cell ~n ~f ~m) [ 0; 2 ])
            [ 0; t / 2; t ])
        [ 16; 25; 31 ];
      List.concat_map
        (fun n ->
          let t = max 1 ((9 * n / 20) - 1) in
          List.concat_map
            (fun f -> List.map (fun m -> auth_cell ~n ~f ~m) [ 0; 2 ])
            [ 0; t / 2 ])
        [ 11; 17 ];
      List.concat_map
        (fun proto ->
          List.map (fun f -> baseline_cell ~proto ~n:25 ~f) [ 0; 4 ])
        [ `Es; `Pk ];
    ]

(* Each probe cell runs supervised (one retry, no injection): a
   transient crash re-runs once, and a genuinely broken cell becomes a
   typed gate failure listing which probes died — exit 1 with the cells
   named, not a stack trace that hides how much of the sweep was fine. *)
let run_sweep ~jobs =
  let cells = Array.of_list (sweep_cells ()) in
  let t0 = Unix.gettimeofday () in
  let config = { Supervisor.default_config with retries = 1 } in
  let outcomes =
    Supervisor.with_supervisor config (fun sup ->
        let tasks =
          Array.mapi
            (fun i cell () ->
              Supervisor.supervise sup ~key:(Printf.sprintf "gate/%d" i) cell)
            cells
        in
        Pool.with_pool ~jobs (fun pool -> Pool.run_all pool tasks))
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let metrics, failed =
    Array.to_list outcomes
    |> List.mapi (fun i r -> (i, r))
    |> List.partition_map (fun (i, r) ->
           match r with
           | Ok (Supervisor.Completed { value; _ }) -> Either.Left value
           | Ok (Supervisor.Quarantined { ledger }) ->
             Either.Right
               (Format.asprintf "probe cell gate/%d: %a" i
                  (fun ppf -> Supervisor.pp_ledger ppf)
                  ledger)
           | Error e ->
             Either.Right
               (Printf.sprintf "probe cell gate/%d: harness error %s" i
                  (Printexc.to_string e)))
  in
  (metrics, failed, wall_ms)

(* ---------- JSON (hand-rolled: no json dependency in the image) ---------- *)

(* The serve probe: a quick in-process run of the service loop with
   the byte-identity oracle on. Throughput is environment-dependent and
   therefore warn-only, like the wall-clock reference; an oracle
   failure is correctness and fails the gate like any drifted cell. *)
type serve_ref = { s_per_sec : float; s_jobs : int; s_instances : int }

let measure_serve { s_jobs; s_instances; _ } =
  let module Server = Bap_servelib.Server in
  let module Load = Bap_servelib.Load in
  let config =
    {
      Server.default_config with
      Server.jobs = s_jobs;
      queue_capacity = max 1 s_instances;
      batch = 256;
    }
  in
  let o =
    Load.run_inproc ~config ~instances:s_instances
      ~families:[ Bap_servelib.Instance.Pk ] ~n:4 ()
  in
  (o.Bap_servelib.Load.per_sec, Load.failures o)

(* The allocation probe: a pinned E1-style slice of the sweep, run
   inline on the calling domain so Gc.minor_words (via the memprobe's
   domain-local reader) counts exactly this work and nothing else.
   Minor words per round is a pure function of the compiled code — the
   alloc-regression signal ISSUE 10's observatory gates on. *)
let measure_alloc () =
  let module Memprobe = Bap_telemetry.Memprobe in
  let cells =
    [
      unauth_cell ~n:25 ~f:4 ~m:0;
      unauth_cell ~n:25 ~f:4 ~m:2;
      unauth_cell ~n:31 ~f:10 ~m:0;
    ]
  in
  let words0 = Memprobe.domain_minor_words () in
  let rounds = List.fold_left (fun acc cell -> acc + (cell ()).rounds) 0 cells in
  let words = Memprobe.domain_minor_words () -. words0 in
  if rounds <= 0 then begin
    Printf.printf "FAILED: alloc probe simulated 0 rounds\n";
    exit 1
  end;
  words /. float_of_int rounds

let json_of ~metrics ~wall_ms ~serve ~alloc =
  let cell m =
    Printf.sprintf
      "    {\"id\": %S, \"decided\": %d, \"rounds\": %d, \"msgs\": %d, \"ok\": %b}"
      m.id m.decided m.rounds m.msgs m.ok
  in
  let serve_field =
    match serve with
    | None -> ""
    | Some s ->
      Printf.sprintf
        ",\n  \"serve\": {\"instances_per_sec\": %.0f, \"jobs\": %d, \
         \"instances\": %d, \"families\": \"pk\", \"n\": 4}"
        s.s_per_sec s.s_jobs s.s_instances
  in
  let alloc_field =
    match alloc with
    | None -> ""
    | Some w -> Printf.sprintf ",\n  \"alloc_minor_words_per_round\": %.1f" w
  in
  Printf.sprintf
    "{\n  \"version\": 1,\n  \"wall_ms\": %.1f%s%s,\n  \"cells\": [\n%s\n  ]\n}\n"
    wall_ms serve_field alloc_field
    (String.concat ",\n" (List.map cell metrics))

(* JSON parsing lives in lib/telemetry (shared with the trace sinks and
   bap_trace); this alias keeps the call sites below unchanged. *)
module Json = Bap_telemetry.Json

let parse_baseline text =
  let open Json in
  let j = parse text in
  let wall_ms = to_float (member "wall_ms" j) in
  let cells =
    match to_list (member "cells" j) with
    | None -> invalid_arg "baseline: missing cells"
    | Some cs ->
      List.map
        (fun c ->
          match
            ( to_string (member "id" c),
              to_int (member "decided" c),
              to_int (member "rounds" c),
              to_int (member "msgs" c),
              to_bool (member "ok" c) )
          with
          | Some id, Some decided, Some rounds, Some msgs, Some ok ->
            { id; decided; rounds; msgs; ok }
          | _ -> invalid_arg "baseline: malformed cell")
        cs
  in
  let serve =
    match member "serve" j with
    | None -> None
    | Some s ->
      (match
         ( to_float (member "instances_per_sec" s),
           to_int (member "jobs" s),
           to_int (member "instances" s) )
       with
      | Some s_per_sec, Some s_jobs, Some s_instances ->
        Some { s_per_sec; s_jobs; s_instances }
      | _ -> invalid_arg "baseline: malformed serve reference")
  in
  (* Absent in baselines from before the allocation observatory; None
     simply skips the alloc drift warning. *)
  let alloc = to_float (member "alloc_minor_words_per_round" j) in
  (cells, wall_ms, serve, alloc)

(* ---------- the gate ---------- *)

let in_ci () = Sys.getenv_opt "GITHUB_ACTIONS" = Some "true"

let warn fmt =
  Printf.ksprintf
    (fun msg ->
      if in_ci () then Printf.printf "::warning title=bench-regression::%s\n" msg
      else Printf.printf "WARNING: %s\n" msg)
    fmt

(* ---------- the bench trajectory (BENCH_HISTORY.jsonl) ---------- *)

(* One dated line per gate run: the probe-sweep wall clock, the serve
   throughput, and the n=1000 scale-probe time. All three are
   machine-dependent, so the trajectory is warn-only — the point is a
   recorded curve over commits, not a pass/fail bar. *)
type history_entry = {
  h_date : string;
  h_wall_ms : float;
  h_serve_per_sec : float;
  h_scale_n1000_ms : float;
  h_recovery_ms : float;
      (* crash-restart recovery probe; 0.0 in entries from before the
         instance journal existed *)
  h_alloc_words_per_round : float;
      (* allocation probe; 0.0 in entries from before the allocation
         observatory existed *)
}

let today () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

(* The recovery probe: craft an instance journal holding accepted-but-
   unanswered instances, then time a --resume server recovering them
   over an immediately-EOF stream — the restart-to-ready cost of a
   SIGKILLed service, isolated from any client traffic. Recovery that
   loses or invents instances is correctness and fails the gate. *)
let measure_recovery () =
  let module Server = Bap_servelib.Server in
  let module SJournal = Bap_servelib.Journal in
  let module Load = Bap_servelib.Load in
  let k = 64 in
  let path = Filename.temp_file "bap_gate_recovery" ".journal" in
  let j = SJournal.open_ ~path () in
  List.iter
    (fun spec -> ignore (SJournal.accept j spec))
    (Load.plan_specs ~instances:k ~families:[ Bap_servelib.Instance.Pk ] ~n:4);
  SJournal.close j;
  let null_r, null_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  Unix.close null_w (* immediate EOF: wall time is pure recovery *);
  let cfg =
    {
      Server.default_config with
      Server.journal_path = Some path;
      resume = true;
      batch = 256;
      queue_capacity = max 1 k;
    }
  in
  let t0 = Unix.gettimeofday () in
  let stats = Server.serve_fds cfg ~in_fd:null_r ~out_fd:out_w in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ null_r; out_r; out_w ];
  (try Sys.remove path with Sys_error _ -> ());
  if
    stats.Server.recovered <> k
    || stats.Server.accepted <> k
    || stats.Server.responded <> k
  then begin
    Printf.printf
      "FAILED: recovery probe recovered %d / accepted %d / responded %d of %d \
       journaled instance(s)\n"
      stats.Server.recovered stats.Server.accepted stats.Server.responded k;
    exit 1
  end;
  ms

let measure_scale () =
  let r = Scale_probe.run ~n:1000 ~f:0 () in
  if not (r.Scale_probe.agreement && r.Scale_probe.decided) then begin
    Printf.printf "FAILED: scale probe n=1000 (agreement=%b decided=%b)\n"
      r.Scale_probe.agreement r.Scale_probe.decided;
    exit 1
  end;
  r.Scale_probe.wall_ms

let last_history_entry path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let last =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let last = ref None in
          (try
             while true do
               let line = input_line ic in
               if String.trim line <> "" then last := Some line
             done
           with End_of_file -> ());
          !last)
    in
    match last with
    | None -> None
    | Some line -> (
      let open Json in
      match parse line with
      | exception Parse _ -> None
      | j -> (
        match
          ( to_string (member "date" j),
            to_float (member "wall_ms" j),
            to_float (member "serve_per_sec" j),
            to_float (member "scale_n1000_ms" j) )
        with
        | Some h_date, Some h_wall_ms, Some h_serve_per_sec, Some h_scale_n1000_ms
          ->
          (* recovery_ms arrived with the instance journal and the alloc
             probe with the allocation observatory; entries from before
             either default to 0 (which disables that drift warning). *)
          let h_recovery_ms =
            Option.value ~default:0. (to_float (member "recovery_ms" j))
          in
          let h_alloc_words_per_round =
            Option.value ~default:0.
              (to_float (member "alloc_minor_words_per_round" j))
          in
          Some
            {
              h_date;
              h_wall_ms;
              h_serve_per_sec;
              h_scale_n1000_ms;
              h_recovery_ms;
              h_alloc_words_per_round;
            }
        | _ -> None))
  end

let append_history ~path e =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Printf.sprintf
           "{\"date\": %S, \"wall_ms\": %.1f, \"serve_per_sec\": %.0f, \
            \"scale_n1000_ms\": %.1f, \"recovery_ms\": %.1f, \
            \"alloc_minor_words_per_round\": %.1f}\n"
           e.h_date e.h_wall_ms e.h_serve_per_sec e.h_scale_n1000_ms
           e.h_recovery_ms e.h_alloc_words_per_round))

(* Measure the scale probe, warn against the previous trajectory point,
   and append the new one. *)
let record_history ~path ~wall_ms ~serve_per_sec ~alloc_words_per_round =
  let scale_ms = measure_scale () in
  let recovery_ms = measure_recovery () in
  (match last_history_entry path with
  | None ->
    (* Satellite of ISSUE 10: an empty or missing trajectory is a seed,
       not an error — say so instead of silently skipping the drift
       checks. *)
    Printf.printf
      "bap_gate: no prior trajectory point in %s; seeding the first one \
       (drift warnings begin with the next run)\n"
      path
  | Some prev ->
    if wall_ms > 1.2 *. prev.h_wall_ms then
      warn "gate sweep %.0f ms is %.0f%% over the last trajectory point (%s: %.0f ms)"
        wall_ms
        ((wall_ms /. prev.h_wall_ms -. 1.) *. 100.)
        prev.h_date prev.h_wall_ms;
    if prev.h_serve_per_sec > 0. && serve_per_sec < 0.8 *. prev.h_serve_per_sec
    then
      warn "serve %.0f/s is %.0f%% under the last trajectory point (%s: %.0f/s)"
        serve_per_sec
        ((1. -. (serve_per_sec /. prev.h_serve_per_sec)) *. 100.)
        prev.h_date prev.h_serve_per_sec;
    if scale_ms > 1.2 *. prev.h_scale_n1000_ms then
      warn
        "scale probe (n=1000) %.0f ms is %.0f%% over the last trajectory point \
         (%s: %.0f ms)"
        scale_ms
        ((scale_ms /. prev.h_scale_n1000_ms -. 1.) *. 100.)
        prev.h_date prev.h_scale_n1000_ms;
    if prev.h_recovery_ms > 0. && recovery_ms > 1.5 *. prev.h_recovery_ms then
      warn
        "crash-restart recovery %.0f ms is %.0f%% over the last trajectory \
         point (%s: %.0f ms)"
        recovery_ms
        ((recovery_ms /. prev.h_recovery_ms -. 1.) *. 100.)
        prev.h_date prev.h_recovery_ms;
    if
      prev.h_alloc_words_per_round > 0.
      && alloc_words_per_round > 1.1 *. prev.h_alloc_words_per_round
    then
      warn
        "alloc probe %.0f minor words/round is %.0f%% over the last \
         trajectory point (%s: %.0f)"
        alloc_words_per_round
        ((alloc_words_per_round /. prev.h_alloc_words_per_round -. 1.) *. 100.)
        prev.h_date prev.h_alloc_words_per_round);
  append_history ~path
    {
      h_date = today ();
      h_wall_ms = wall_ms;
      h_serve_per_sec = serve_per_sec;
      h_scale_n1000_ms = scale_ms;
      h_recovery_ms = recovery_ms;
      h_alloc_words_per_round = alloc_words_per_round;
    };
  Printf.printf
    "bap_gate: appended trajectory point to %s (scale n=1000: %.0f ms, \
     recovery: %.0f ms, alloc: %.0f words/round)\n"
    path scale_ms recovery_ms alloc_words_per_round

let check ~baseline_file ~history ~jobs =
  let text =
    let ic = open_in_bin baseline_file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let expected, base_wall, serve_ref, base_alloc = parse_baseline text in
  let actual, failed, wall_ms = run_sweep ~jobs in
  if failed <> [] then begin
    List.iter (fun msg -> Printf.printf "QUARANTINED %s\n" msg) failed;
    Printf.printf "FAILED: %d probe cell(s) died despite retry\n"
      (List.length failed)
  end;
  let drift = ref [] in
  let index = List.map (fun m -> (m.id, m)) actual in
  List.iter
    (fun e ->
      match List.assoc_opt e.id index with
      | None -> drift := Printf.sprintf "cell %s: missing from sweep" e.id :: !drift
      | Some a ->
        if (a.decided, a.rounds, a.msgs, a.ok) <> (e.decided, e.rounds, e.msgs, e.ok)
        then
          drift :=
            Printf.sprintf
              "cell %s: (decided,rounds,msgs,ok) = (%d,%d,%d,%b), baseline (%d,%d,%d,%b)"
              e.id a.decided a.rounds a.msgs a.ok e.decided e.rounds e.msgs e.ok
            :: !drift)
    expected;
  List.iter
    (fun a ->
      if not (List.exists (fun e -> e.id = a.id) expected) then
        drift := Printf.sprintf "cell %s: not in baseline (run --write?)" a.id :: !drift)
    actual;
  Printf.printf "bap_gate: %d cells in %.0f ms (--jobs %d), baseline %s\n"
    (List.length actual) wall_ms jobs baseline_file;
  (match base_wall with
  | Some base when wall_ms > 1.2 *. base ->
    warn "wall-clock %.0f ms is %.0f%% over the baseline's %.0f ms reference" wall_ms
      ((wall_ms /. base -. 1.) *. 100.)
      base
  | _ -> ());
  let serve_measured = ref None in
  (match serve_ref with
  | None -> ()
  | Some r ->
    let per_sec, oracle_failures = measure_serve r in
    serve_measured := Some per_sec;
    Printf.printf
      "bap_gate: serve %.0f instances/sec (--jobs %d, baseline %.0f)\n" per_sec
      r.s_jobs r.s_per_sec;
    List.iter
      (fun f -> drift := Printf.sprintf "serve oracle: %s" f :: !drift)
      oracle_failures;
    if per_sec < 0.8 *. r.s_per_sec then
      warn "serve throughput %.0f/s is %.0f%% under the baseline's %.0f/s"
        per_sec
        ((1. -. (per_sec /. r.s_per_sec)) *. 100.)
        r.s_per_sec);
  let alloc_words = measure_alloc () in
  (match base_alloc with
  | None ->
    Printf.printf
      "bap_gate: alloc probe %.0f minor words/round (no baseline yet — run \
       --write to record one)\n"
      alloc_words
  | Some base ->
    Printf.printf "bap_gate: alloc probe %.0f minor words/round (baseline %.0f)\n"
      alloc_words base;
    if base > 0. && alloc_words > 1.1 *. base then
      warn
        "alloc probe %.0f minor words/round is %.0f%% over the baseline's %.0f"
        alloc_words
        ((alloc_words /. base -. 1.) *. 100.)
        base);
  (match history with
  | None -> ()
  | Some path ->
    let per_sec =
      match !serve_measured with
      | Some p -> p
      | None -> fst (measure_serve { s_per_sec = 0.; s_jobs = 1; s_instances = 3000 })
    in
    record_history ~path ~wall_ms ~serve_per_sec:per_sec
      ~alloc_words_per_round:alloc_words);
  match (List.rev !drift, failed) with
  | [], [] ->
    Printf.printf "ok: all %d correctness metrics match the baseline\n"
      (List.length expected);
    0
  | ds, _ ->
    List.iter (fun d -> Printf.printf "DRIFT %s\n" d) ds;
    if ds <> [] then
      Printf.printf "FAILED: %d cell(s) drifted from %s\n" (List.length ds)
        baseline_file;
    1

let write ~baseline_file ~history ~jobs =
  let metrics, failed, wall_ms = run_sweep ~jobs in
  if failed <> [] then begin
    List.iter (fun msg -> Printf.printf "QUARANTINED %s\n" msg) failed;
    Printf.printf "refusing to write a baseline from a degraded sweep\n";
    exit 1
  end;
  let serve =
    let r = { s_per_sec = 0.; s_jobs = 1; s_instances = 3000 } in
    let per_sec, oracle_failures = measure_serve r in
    if oracle_failures <> [] then begin
      List.iter (fun f -> Printf.printf "serve oracle: %s\n" f) oracle_failures;
      Printf.printf "refusing to write a baseline from a failing serve loop\n";
      exit 1
    end;
    Some { r with s_per_sec = per_sec }
  in
  let alloc_words = measure_alloc () in
  let oc = open_out_bin baseline_file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (json_of ~metrics ~wall_ms ~serve ~alloc:(Some alloc_words)));
  Printf.printf
    "bap_gate: wrote %d cells to %s (%.0f ms, serve %.0f/s, alloc %.0f \
     words/round)\n"
    (List.length metrics) baseline_file wall_ms
    (match serve with Some s -> s.s_per_sec | None -> 0.)
    alloc_words;
  (* --write always extends the trajectory: a fresh baseline is exactly
     the moment a new point belongs on the curve. *)
  let path = Option.value history ~default:"BENCH_HISTORY.jsonl" in
  record_history ~path ~wall_ms
    ~serve_per_sec:(match serve with Some s -> s.s_per_sec | None -> 0.)
    ~alloc_words_per_round:alloc_words;
  0

(* ---------- the stats gate ---------- *)

(* Consume a bap_tables --stats-json report and mirror bap_tables' own
   exit discipline: 4 when the sweep was DEGRADED (quarantined cells),
   0 when clean. Lets CI gate on a sweep that ran elsewhere. *)
let check_stats ~stats_file =
  let text =
    let ic = open_in_bin stats_file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let open Json in
  match parse text with
  | exception Parse msg ->
    Printf.printf "bap_gate: %s: unparseable stats: %s\n" stats_file msg;
    1
  | j ->
    let field k = Option.value ~default:0 (to_int (member k j)) in
    let quarantined = Option.value ~default:[] (to_list (member "quarantined" j)) in
    Printf.printf
      "bap_gate: stats %s: %d cells (%d executed, %d cache hits, %d journal \
       hits) on %d job(s), %d retried\n"
      stats_file (field "total_cells") (field "executed") (field "cache_hits")
      (field "journal_hits") (field "jobs") (field "retried");
    if quarantined = [] then begin
      Printf.printf "ok: sweep clean\n";
      0
    end
    else begin
      List.iter
        (fun q ->
          Printf.printf "QUARANTINED %s/%s\n"
            (Option.value ~default:"?" (to_string (member "exp_id" q)))
            (Option.value ~default:"?" (to_string (member "key" q))))
        quarantined;
      Printf.printf "FAILED: sweep DEGRADED (%d cell(s) quarantined)\n"
        (List.length quarantined);
      4
    end

let run mode baseline_file history jobs stats_file =
  Supervisor.install_exit_handlers ();
  let jobs = max 1 jobs in
  match (stats_file, mode) with
  | Some stats_file, _ -> check_stats ~stats_file
  | None, `Write -> write ~baseline_file ~history ~jobs
  | None, `Check -> check ~baseline_file ~history ~jobs

let cmd =
  let mode =
    Arg.(
      value
      & vflag `Check
          [
            (`Check, info [ "check" ] ~doc:"Compare the sweep against the baseline (default).");
            (`Write, info [ "write" ] ~doc:"Regenerate the baseline file from this machine.");
          ])
  in
  let baseline =
    Arg.(
      value
      & opt string "BENCH_BASELINE.json"
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline file.")
  in
  let history =
    Arg.(
      value
      & opt (some string) None
      & info [ "history" ] ~docv:"FILE"
          ~doc:
            "Bench-trajectory file (JSONL, one dated entry per run). --write \
             always appends to it (default BENCH_HISTORY.jsonl); --check \
             appends only when this flag names a file. Drift against the \
             previous entry warns, never fails.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains for the sweep.")
  in
  let stats_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-stats" ] ~docv:"FILE"
          ~doc:
            "Instead of sweeping, read a bap_tables --stats-json report and \
             exit 4 if that sweep was DEGRADED (quarantined cells), 0 if \
             clean.")
  in
  Cmd.v
    (Cmd.info "bap_gate"
       ~doc:"Bench-regression gate: deterministic smoke sweep vs committed baseline")
    Term.(const run $ mode $ baseline $ history $ jobs $ stats_file)

let () = exit (Cmd.eval' cmd)
