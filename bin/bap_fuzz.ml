(* CLI: randomized chaos campaign over the protocol stack.

   Generates (protocol, n, t, faulty, inputs, advice, fault-schedule)
   configurations, checks the safety oracles (agreement, validity,
   termination bound, monitor soundness) on every execution, and
   delta-debugs any violation to a minimal schedule printed as a
   pasteable OCaml value. Output is a pure function of the seed:
   re-running the same command yields byte-identical bytes.

   Examples:
     dune exec bin/bap_fuzz.exe -- --runs 500 --seed 1
     dune exec bin/bap_fuzz.exe -- --runs 200 --protocols unauth,auth,es,pk
     dune exec bin/bap_fuzz.exe -- --runs 100 --self-test   # prove the oracles fire *)

module Fuzz = Bap_chaos.Fuzz
module Schedule = Bap_chaos.Schedule
module Harness = Bap_chaos.Harness
module Supervisor = Bap_exec.Supervisor
module Tel = Bap_telemetry.Telemetry
open Cmdliner

let parse_protocols s =
  let names = String.split_on_char ',' s |> List.filter (fun x -> x <> "") in
  let ps = List.filter_map Fuzz.protocol_of_name names in
  if List.length ps <> List.length names || ps = [] then
    Error (`Msg (Printf.sprintf "unknown protocol list %S (use unauth,auth,es,pk)" s))
  else Ok ps

(* Under --harness-chaos the whole campaign runs as one supervised cell.
   Injected faults fire *before* the campaign function runs, so the
   failed attempts print nothing: stdout for the surviving attempt is
   byte-identical to a chaos-free run of the same seed, and the recovery
   story goes to stderr. The schedule (crash 80% / hang 20%, faulty for
   the first two attempts) guarantees attempts 0-1 fault and attempt 2
   runs clean, well inside the retry budget of 4. *)
let supervised_campaign ~chaos_seed f =
  match chaos_seed with
  | None -> Some (f ())
  | Some seed ->
    let h = Harness.create ~crash_pct:80 ~hang_pct:20 ~faulty_attempts:2 ~seed () in
    let config =
      {
        Supervisor.retries = 4;
        timeout_s = Some 2.0;
        seed;
        inject = Some (Harness.decide h);
      }
    in
    Supervisor.with_supervisor config (fun sup ->
        match Supervisor.supervise sup ~key:"bap-fuzz/campaign" f with
        | Supervisor.Completed { value; attempts; ledger } ->
          if ledger <> [] then
            Fmt.epr "[chaos] campaign recovered after %d attempt(s): %a@."
              attempts
              (fun ppf -> Supervisor.pp_ledger ppf)
              ledger;
          Some value
        | Supervisor.Quarantined { ledger } ->
          Fmt.epr "[chaos] campaign QUARANTINED: %a@."
            (fun ppf -> Supervisor.pp_ledger ppf)
            ledger;
          None)

(* Replay checker counterexamples: load the JSON bap_check wrote, rerun
   each configuration through the exact engine entry points the fuzzer
   uses, and ddmin-shrink any reproduced violation. Exit 0 iff every
   counterexample in the file still violates — the round-trip proof
   that checker findings are fuzzer findings. *)
let run_replay path =
  match Bap_checklib.Counterexample.load ~path with
  | Error msg ->
    Fmt.epr "bap_fuzz --replay: %s@." msg;
    3
  | Ok cexs ->
    Fmt.pr "bap_fuzz: replaying %d counterexample(s) from %s@." (List.length cexs)
      path;
    let reproduced = ref 0 in
    List.iteri
      (fun i (cex : Bap_checklib.Counterexample.t) ->
        let sabotage = cex.Bap_checklib.Counterexample.sabotage in
        let config = cex.Bap_checklib.Counterexample.config in
        let report = Fuzz.run_one ~sabotage config in
        Fmt.pr "replay %d:%s@,%a@,%a@." (i + 1)
          (if sabotage then " (sabotage)" else "")
          Fuzz.E.pp_config config Fuzz.E.pp_report report;
        if report.Fuzz.E.violations <> [] then begin
          incr reproduced;
          let shrunk = Fuzz.shrink ~sabotage config in
          Fmt.pr "shrunk schedule (%d of %d faults):@,%a@." (Schedule.length shrunk)
            (Schedule.length config.Fuzz.E.schedule)
            Schedule.pp shrunk
        end
        else Fmt.pr "replay %d: NO violation reproduced@." (i + 1))
      cexs;
    let total = List.length cexs in
    if !reproduced = total && total > 0 then begin
      Fmt.pr "ok: %d/%d counterexample(s) reproduced@." !reproduced total;
      0
    end
    else begin
      Fmt.pr "FAILED: %d/%d counterexample(s) reproduced@." !reproduced total;
      2
    end

let run_campaign runs seed protocols self_test quiet chaos_seed =
  Supervisor.install_exit_handlers
    ~on_signal:(fun ~signal_name ->
      Fmt.epr "@.[%s] campaign interrupted; re-run the same command to \
               reproduce (output is a pure function of the seed)@."
        signal_name)
    ();
  Fmt.pr "bap_fuzz: runs=%d seed=%d protocols=[%s]%s@." runs seed
    (String.concat "," (List.map Fuzz.E.protocol_name protocols))
    (if self_test then " self-test" else "");
  let progress ~run ~violations =
    if (not quiet) && run mod 100 = 0 then
      Fmt.pr "  progress: %d runs, %d violation(s)@." run violations
  in
  match
    supervised_campaign ~chaos_seed (fun () ->
        Fuzz.campaign ~sabotage:self_test ~progress ~protocols ~runs ~seed ())
  with
  | None -> 4
  | Some c ->
  List.iter (fun cx -> Fmt.pr "%a@." Fuzz.pp_counterexample cx) c.Fuzz.counterexamples;
  Fmt.pr "checksum=%Lx@." c.Fuzz.checksum;
  let n_cx = List.length c.Fuzz.counterexamples in
  if self_test then begin
    (* The harness must detect its own sabotage and shrink it small. *)
    let shrunk_ok =
      c.Fuzz.counterexamples <> []
      && List.for_all (fun cx -> Schedule.length cx.Fuzz.shrunk <= 5) c.Fuzz.counterexamples
    in
    if shrunk_ok then begin
      Fmt.pr "self-test ok: %d runs, %d sabotage(s) caught, all shrunk to <= 5 faults@."
        c.Fuzz.runs n_cx;
      0
    end
    else begin
      Fmt.pr "self-test FAILED: %d runs, %d counterexample(s)@." c.Fuzz.runs n_cx;
      2
    end
  end
  else if n_cx = 0 then begin
    Fmt.pr "ok: %d runs, 0 safety violations@." c.Fuzz.runs;
    0
  end
  else begin
    Fmt.pr "FAILED: %d runs, %d safety violation(s)@." c.Fuzz.runs n_cx;
    2
  end

let run runs seed protocols self_test quiet chaos_seed trace_out metrics_json replay
    =
  (* Telemetry goes to files only: campaign stdout stays a pure function
     of the seed. *)
  (match trace_out with
  | Some path -> Tel.install ~wall:true (Tel.Jsonl path)
  | None -> if metrics_json <> None then Tel.install Tel.Counters_only);
  let code =
    match replay with
    | Some path -> run_replay path
    | None -> run_campaign runs seed protocols self_test quiet chaos_seed
  in
  (match metrics_json with
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Tel.Metrics.to_json (Tel.Metrics.snapshot ())))
  | None -> ());
  Tel.shutdown ();
  code

let cmd =
  let runs =
    Arg.(value & opt int 500 & info [ "runs" ] ~doc:"Number of random configurations.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.") in
  let protocols =
    Arg.(
      value
      & opt (conv (parse_protocols, fun ppf ps ->
                 Fmt.pf ppf "%s" (String.concat "," (List.map Fuzz.E.protocol_name ps))))
          [ Fuzz.E.Unauth; Fuzz.E.Auth ]
      & info [ "protocols" ]
          ~doc:"Comma-separated subset of unauth,auth,es,pk to fuzz.")
  in
  let self_test =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Sabotage the harness (tamper one honest decision whenever the schedule \
             equivocates) and require the oracles to catch it and the shrinker to \
             reduce it to <= 5 faults. Exit 0 iff the sabotage was caught.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the periodic progress lines.")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "harness-chaos" ] ~docv:"SEED"
          ~doc:
            "Run the campaign under the harness supervisor with injected \
             crashes and hangs from a seeded schedule. The campaign's stdout \
             stays byte-identical to a chaos-free run; the recovery ledger \
             goes to stderr. Exit 4 if even the retry budget cannot save it.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSONL telemetry trace of every simulated execution in \
             the campaign. Analyse with bap_trace. Never touches stdout.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the merged metrics registry as JSON after the campaign.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a counterexample file written by bap_check --cex-out: rerun \
             every configuration through the fuzzer's engine entry points and \
             ddmin-shrink each reproduced violation. Exit 0 iff all reproduce.")
  in
  Cmd.v
    (Cmd.info "bap_fuzz" ~doc:"Chaos-fuzz the Byzantine agreement stack's safety oracles")
    Term.(
      const run $ runs $ seed $ protocols $ self_test $ quiet $ chaos_seed
      $ trace_out $ metrics_json $ replay)

let () = exit (Cmd.eval' cmd)
