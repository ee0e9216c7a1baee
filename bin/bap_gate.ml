(* CLI: the bench-regression gate.

   Measures one table of probes and compares each value with a
   committed baseline (BENCH_BASELINE.json) and, with --history, with
   the last point of the bench trajectory (BENCH_HISTORY.jsonl), then
   appends this run's point there:

   - wall_ms: a fixed, deterministic smoke sweep over both protocol
     stacks and the no-prediction baselines — every cell an independent
     job fanned out over the lib/exec domain pool. Its cells' decided
     round, total rounds, honest messages and agreement must equal the
     baseline's exactly: the sweep is a pure function of the seeds, so
     a changed number means changed protocol behaviour, not noise, and
     any drift FAILS the gate;
   - serve_per_sec, scale_n1000_ms, recovery_ms: the serve loop's
     throughput, one n=1000 wrapper instance, and crash-restart
     recovery of a journaled server;
   - alloc_minor_words_per_round: minor words per simulated round of a
     pinned E1-style slice — exactly reproducible on one machine and
     one compiler, but legitimately different across OCaml versions.

   Every probe value depends on the machine or the compiler, so a value
   worse than a reference by more than the probe's tolerance only WARNS
   (as a GitHub Actions ::warning:: annotation when running in CI). A
   probe whose own oracle fails — a quarantined sweep cell, a served
   answer that differs from batch recomputation, a recovery that loses
   instances — fails --check and stops --write.

   --trace-overhead is the telemetry cost gate, and --check-stats reads
   a sweep's stats written elsewhere; see below.

   Usage:
     dune exec bin/bap_gate.exe -- --write             # baseline + trajectory
     dune exec bin/bap_gate.exe -- --check --jobs 2    # CI gate
     dune exec bin/bap_gate.exe -- --check --history BENCH_HISTORY.jsonl
     dune exec bin/bap_gate.exe -- --trace-overhead --jobs 2 *)

open Cmdliner
module Pool = Bap_exec.Pool
module Supervisor = Bap_exec.Supervisor
module Json = Bap_telemetry.Json
module Memprobe = Bap_telemetry.Memprobe
module Tel = Bap_telemetry.Telemetry
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

(* ---------- the probes ---------- *)

(* The serve loop in-process over pipes, with the byte-identity oracle
   on: one job, 3000 phase-king instances at n=4. *)
let measure_serve () =
  let module Server = Bap_servelib.Server in
  let module Load = Bap_servelib.Load in
  let instances = 3000 in
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      queue_capacity = instances;
      batch = 256;
    }
  in
  let o =
    Load.run_inproc ~config ~instances ~families:[ Bap_servelib.Instance.Pk ] ~n:4 ()
  in
  match Load.failures o with
  | [] -> Ok o.Load.per_sec
  | fs -> Error (String.concat "; " fs)

let measure_scale () =
  let r = Scale_probe.run ~n:1000 ~f:0 () in
  if r.Scale_probe.agreement && r.Scale_probe.decided then Ok r.Scale_probe.wall_ms
  else
    Error
      (Printf.sprintf "n=1000 agreement=%b decided=%b" r.Scale_probe.agreement
         r.Scale_probe.decided)

(* Craft an instance journal holding accepted-but-unanswered instances,
   then time a --resume server recovering them over an immediately-EOF
   stream: the restart-to-ready cost of a SIGKILLed service, isolated
   from any client traffic. *)
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
    stats.Server.recovered = k
    && stats.Server.accepted = k
    && stats.Server.responded = k
  then Ok ms
  else
    Error
      (Printf.sprintf
         "recovered %d / accepted %d / responded %d of %d journaled instance(s)"
         stats.Server.recovered stats.Server.accepted stats.Server.responded k)

(* A pinned E1-style slice of the sweep, run inline on the calling
   domain so the memprobe's domain-local reader counts exactly this
   work and nothing else. *)
let measure_alloc () =
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
  if rounds > 0 then Ok (words /. float_of_int rounds)
  else Error "simulated 0 rounds"

type probe = {
  key : string;  (** its field in the baseline and in each trajectory point *)
  lower_is_better : bool;
  tolerance : float;  (** a value worse than a reference by more warns *)
  measure : unit -> (float, string) result;  (** [Error]: its oracle failed *)
}

(* The probe table, in trajectory-point field order. The wall_ms probe
   hands the exact cells of its sweep to [cells]. *)
let probes ~jobs ~cells =
  let probe ?(lower_is_better = true) key tolerance measure =
    { key; lower_is_better; tolerance; measure }
  in
  [
    probe "wall_ms" 0.2 (fun () ->
        let metrics, failed, wall_ms = run_sweep ~jobs in
        cells := metrics;
        if failed = [] then Ok wall_ms else Error (String.concat "; " failed));
    probe ~lower_is_better:false "serve_per_sec" 0.2 measure_serve;
    probe "scale_n1000_ms" 0.2 measure_scale;
    probe "recovery_ms" 0.5 measure_recovery;
    probe "alloc_minor_words_per_round" 0.1 measure_alloc;
  ]

(* Every probe's result, and the cells of the wall_ms sweep. *)
let measure_all ~jobs =
  let cells = ref [] in
  let results = List.map (fun p -> (p, p.measure ())) (probes ~jobs ~cells) in
  (results, !cells)

(* ---------- references and the report ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let in_ci () = Sys.getenv_opt "GITHUB_ACTIONS" = Some "true"

let warn fmt =
  Printf.ksprintf
    (fun msg ->
      if in_ci () then Printf.printf "::warning title=bench-regression::%s\n" msg
      else Printf.printf "WARNING: %s\n" msg)
    fmt

(* Print each probe's value beside every labelled reference that
   carries its key, warn where the value is worse than one by more than
   the tolerance, and return the probes whose oracle failed. A missing
   or zero field (trajectory points older than the probe) means no
   reference. *)
let report ~refs results =
  List.filter_map
    (fun (p, result) ->
      match result with
      | Error msg -> Some (Printf.sprintf "%s: %s" p.key msg)
      | Ok value ->
        let known =
          List.filter_map
            (fun (label, j) ->
              match Json.to_float (Json.member p.key j) with
              | Some r when r > 0. -> Some (label, r)
              | _ -> None)
            refs
        in
        let shown =
          String.concat "; "
            (List.map (fun (label, r) -> Printf.sprintf "%s %.1f" label r) known)
        in
        Printf.printf "bap_gate: %s %.1f%s\n" p.key value
          (if known = [] then "" else " (" ^ shown ^ ")");
        List.iter
          (fun (label, r) ->
            let ratio = value /. r in
            if p.lower_is_better && ratio > 1. +. p.tolerance then
              warn "%s %.1f is %.0f%% over %s %.1f" p.key value
                ((ratio -. 1.) *. 100.) label r
            else if (not p.lower_is_better) && ratio < 1. -. p.tolerance then
              warn "%s %.1f is %.0f%% under %s %.1f" p.key value
                ((1. -. ratio) *. 100.) label r)
          known;
        None)
    results

let scalar (key, value) = Printf.sprintf "%S: %.1f" key value

let values results =
  List.filter_map
    (fun (p, r) -> Option.map (fun v -> (p.key, v)) (Result.to_option r))
    results

(* ---------- the bench trajectory (BENCH_HISTORY.jsonl) ---------- *)

let today () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

(* The last point of the trajectory as a labelled reference; an empty
   or missing trajectory is a seed, not an error. *)
let last_point path =
  let lines =
    if Sys.file_exists path then
      List.filter
        (fun l -> String.trim l <> "")
        (String.split_on_char '\n' (read_file path))
    else []
  in
  match List.rev lines with
  | line :: _ -> (
    match Json.parse line with
    | j ->
      let date = Option.value ~default:"?" (Json.to_string (Json.member "date" j)) in
      [ ("last point " ^ date, j) ]
    | exception Json.Parse _ -> [])
  | [] ->
    Printf.printf
      "bap_gate: no prior trajectory point in %s; seeding the first one \
       (drift warnings begin with the next run)\n"
      path;
    []

let append_point ~path values =
  Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
    (fun oc ->
      Printf.fprintf oc "{\"date\": %S, %s}\n" (today ())
        (String.concat ", " (List.map scalar values)));
  Printf.printf "bap_gate: appended trajectory point to %s\n" path

(* ---------- the gate ---------- *)

let cells_of j =
  match Json.to_list (Json.member "cells" j) with
  | None -> invalid_arg "baseline: missing cells"
  | Some cs ->
    List.map
      (fun c ->
        match
          ( Json.to_string (Json.member "id" c),
            Json.to_int (Json.member "decided" c),
            Json.to_int (Json.member "rounds" c),
            Json.to_int (Json.member "msgs" c),
            Json.to_bool (Json.member "ok" c) )
        with
        | Some id, Some decided, Some rounds, Some msgs, Some ok ->
          { id; decided; rounds; msgs; ok }
        | _ -> invalid_arg "baseline: malformed cell")
      cs

let cell_drift ~expected actual =
  let key m = (m.decided, m.rounds, m.msgs, m.ok) in
  List.filter_map
    (fun e ->
      match List.find_opt (fun a -> a.id = e.id) actual with
      | None -> Some (Printf.sprintf "cell %s: missing from sweep" e.id)
      | Some a when key a <> key e ->
        Some
          (Printf.sprintf
             "cell %s: (decided,rounds,msgs,ok) = (%d,%d,%d,%b), baseline (%d,%d,%d,%b)"
             e.id a.decided a.rounds a.msgs a.ok e.decided e.rounds e.msgs e.ok)
      | Some _ -> None)
    expected
  @ List.filter_map
      (fun a ->
        if List.exists (fun e -> e.id = a.id) expected then None
        else Some (Printf.sprintf "cell %s: not in baseline (run --write?)" a.id))
      actual

let check ~baseline_file ~history ~jobs =
  let base = Json.parse (read_file baseline_file) in
  let expected = cells_of base in
  let trajectory = Option.fold ~none:[] ~some:last_point history in
  let results, cells = measure_all ~jobs in
  Printf.printf "bap_gate: %d cells (--jobs %d), baseline %s\n" (List.length cells)
    jobs baseline_file;
  let failed = report ~refs:(("baseline", base) :: trajectory) results in
  if failed = [] then
    Option.iter (fun path -> append_point ~path (values results)) history;
  let drift = cell_drift ~expected cells in
  List.iter (Printf.printf "DRIFT %s\n") drift;
  List.iter (Printf.printf "FAILED %s\n") failed;
  if drift <> [] then
    Printf.printf "FAILED: %d cell(s) drifted from %s\n" (List.length drift)
      baseline_file;
  if drift = [] && failed = [] then begin
    Printf.printf "ok: all %d correctness metrics match the baseline\n"
      (List.length expected);
    0
  end
  else 1

(* --write always extends the trajectory: a fresh baseline is exactly
   the moment a new point belongs on the curve. *)
let write ~baseline_file ~history ~jobs =
  let path = Option.value history ~default:"BENCH_HISTORY.jsonl" in
  let trajectory = last_point path in
  let results, cells = measure_all ~jobs in
  match report ~refs:trajectory results with
  | _ :: _ as failed ->
    List.iter (Printf.printf "FAILED %s\n") failed;
    Printf.printf "refusing to write a baseline while a probe's oracle fails\n";
    1
  | [] ->
    let cell m =
      Printf.sprintf
        "    {\"id\": %S, \"decided\": %d, \"rounds\": %d, \"msgs\": %d, \"ok\": %b}"
        m.id m.decided m.rounds m.msgs m.ok
    in
    Out_channel.with_open_bin baseline_file (fun oc ->
        Printf.fprintf oc "{\n  \"version\": 2,\n%s  \"cells\": [\n%s\n  ]\n}\n"
          (String.concat ""
             (List.map (fun v -> "  " ^ scalar v ^ ",\n") (values results)))
          (String.concat ",\n" (List.map cell cells)));
    Printf.printf "bap_gate: wrote %d cells to %s\n" (List.length cells) baseline_file;
    append_point ~path (values results);
    0

(* ---------- the tracing-overhead gate ---------- *)

(* The telemetry spine must cost < 5% wall-clock when recording a full
   JSONL trace of the quick sweep, with and without the allocation
   probe. min-of-3 on each side filters scheduler noise; every side is
   a fresh unjournaled sweep, so every cell runs on every side. *)
let trace_overhead ~jobs =
  let trace_path = Filename.temp_file "bap_overhead" ".jsonl" in
  let sweep () =
    Pool.with_pool ~jobs (fun pool ->
        Bap_experiments.Runner.run ~quick:true ~pool ~render:false ())
  in
  let min_of_3 f =
    List.init 3 (fun _ -> (f ()).Bap_exec.Engine.wall)
    |> List.fold_left Float.min infinity
  in
  let off = min_of_3 sweep in
  let over_budget (label, alloc) =
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
    let overhead = (on_ -. off) /. Float.max 1e-9 off in
    Printf.printf "%s overhead: off %.2fs  on %.2fs  overhead %+.1f%% (budget 5%%)\n"
      label off on_ (100. *. overhead);
    overhead > 0.05
  in
  let over = List.filter over_budget [ ("trace", false); ("trace+alloc", true) ] in
  (try Sys.remove trace_path with Sys_error _ -> ());
  List.iter
    (fun (label, _) -> Printf.printf "FAILED: %s overhead above budget\n" label)
    over;
  if over = [] then 0 else 1

(* ---------- the stats gate ---------- *)

(* Consume a bap_tables --stats-json report and mirror bap_tables' own
   exit discipline: 4 when the sweep was DEGRADED (quarantined cells),
   0 when clean. Lets CI gate on a sweep that ran elsewhere. *)
let check_stats ~stats_file =
  let open Json in
  match parse (read_file stats_file) with
  | exception Parse msg ->
    Printf.printf "bap_gate: %s: unparseable stats: %s\n" stats_file msg;
    1
  | j ->
    let field k = Option.value ~default:0 (to_int (member k j)) in
    let quarantined = Option.value ~default:[] (to_list (member "quarantined" j)) in
    Printf.printf
      "bap_gate: stats %s: %d cells (%d executed, %d journal hits) on %d \
       job(s), %d retried\n"
      stats_file (field "total_cells") (field "executed") (field "journal_hits")
      (field "jobs") (field "retried");
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
  | None, `Trace_overhead -> trace_overhead ~jobs

let cmd =
  let mode =
    Arg.(
      value
      & vflag `Check
          [
            ( `Check,
              info [ "check" ]
                ~doc:"Compare every probe against the baseline (default)." );
            ( `Write,
              info [ "write" ] ~doc:"Regenerate the baseline file from this machine." );
            ( `Trace_overhead,
              info [ "trace-overhead" ]
                ~doc:
                  "Fail if tracing a fresh quick sweep, with or without the \
                   allocation probe, costs more than 5% wall-clock." );
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
       ~doc:"Bench-regression gate: a table of probes vs the committed baseline")
    Term.(const run $ mode $ baseline $ history $ jobs $ stats_file)

let () = exit (Cmd.eval' cmd)
