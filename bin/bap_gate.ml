(* CLI: the bench-regression gate.

   Checks what repeats exactly against a committed baseline
   (BENCH_BASELINE.json):

   - a fixed, deterministic smoke sweep over both protocol stacks and
     the no-prediction baselines, every cell an independent job fanned
     out over the lib/exec domain pool. Its cells' decided round, total
     rounds, honest messages and agreement must equal the baseline's
     exactly: the sweep is a pure function of the seeds, so a changed
     number means changed protocol behaviour, not noise, and any drift
     FAILS the gate;
   - alloc_minor_words_per_round: minor words per simulated round of a
     pinned E1-style slice. It repeats exactly on one machine and one
     compiler but legitimately differs across OCaml versions, so a value
     more than 10% over the baseline's only WARNS (as a GitHub Actions
     ::warning:: annotation when running in CI).

   Wall clock is perfbench's job (perfbench/run.py): it times each
   end-to-end workload with medians and quartiles over repeated runs,
   where one reading here, against one stale reading, could not tell a
   slowdown from host noise. The one timing here is --trace-overhead,
   the telemetry cost gate: a ratio of traced to untraced sweeps taken
   back to back on one host; see below.

   Usage:
     dune exec bin/bap_gate.exe -- --write             # regenerate the baseline
     dune exec bin/bap_gate.exe -- --check --jobs 2    # CI gate
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

(* ---------- the smoke sweep ---------- *)

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

(* Each sweep cell runs supervised (one retry, no injection): a
   transient crash re-runs once, and a genuinely broken cell becomes a
   typed gate failure listing which cells died — exit 1 with the cells
   named, not a stack trace that hides how much of the sweep was fine. *)
let run_sweep ~jobs =
  let cells = Array.of_list (sweep_cells ()) in
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
  Array.to_list outcomes
  |> List.mapi (fun i r -> (i, r))
  |> List.partition_map (fun (i, r) ->
         match r with
         | Ok (Supervisor.Completed { value; _ }) -> Either.Left value
         | Ok (Supervisor.Quarantined { ledger }) ->
           Either.Right
             (Format.asprintf "cell gate/%d: %a" i (fun ppf -> Supervisor.pp_ledger ppf) ledger)
         | Error e ->
           Either.Right (Printf.sprintf "cell gate/%d: harness error %s" i (Printexc.to_string e)))

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

(* ---------- the gate ---------- *)

let alloc_key = "alloc_minor_words_per_round"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let in_ci () = Sys.getenv_opt "GITHUB_ACTIONS" = Some "true"

let warn fmt =
  Printf.ksprintf
    (fun msg ->
      if in_ci () then Printf.printf "::warning title=bench-regression::%s\n" msg
      else Printf.printf "WARNING: %s\n" msg)
    fmt

(* The sweep's cells, the alloc value, and every oracle failure: a cell
   that failed twice, or an alloc slice that simulated nothing. *)
let measure ~jobs =
  let cells, failed = run_sweep ~jobs in
  match measure_alloc () with
  | Ok alloc -> (cells, Some alloc, failed)
  | Error msg -> (cells, None, failed @ [ Printf.sprintf "%s: %s" alloc_key msg ])

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

let check ~baseline_file ~jobs =
  let base = Json.parse (read_file baseline_file) in
  let expected = cells_of base in
  let cells, alloc, failed = measure ~jobs in
  Printf.printf "bap_gate: %d cells (--jobs %d), baseline %s\n" (List.length cells)
    jobs baseline_file;
  Option.iter
    (fun value ->
      match Json.to_float (Json.member alloc_key base) with
      | Some reference when reference > 0. ->
        Printf.printf "bap_gate: %s %.1f (baseline %.1f)\n" alloc_key value reference;
        if value > reference *. 1.1 then
          warn "%s %.1f is %.0f%% over baseline %.1f" alloc_key value
            ((value /. reference -. 1.) *. 100.)
            reference
      | _ -> Printf.printf "bap_gate: %s %.1f\n" alloc_key value)
    alloc;
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

let write ~baseline_file ~jobs =
  match measure ~jobs with
  | cells, Some alloc, [] ->
    let cell m =
      Printf.sprintf
        "    {\"id\": %S, \"decided\": %d, \"rounds\": %d, \"msgs\": %d, \"ok\": %b}"
        m.id m.decided m.rounds m.msgs m.ok
    in
    Out_channel.with_open_bin baseline_file (fun oc ->
        Printf.fprintf oc
          "{\n  \"version\": 2,\n  %S: %.1f,\n  \"cells\": [\n%s\n  ]\n}\n"
          alloc_key alloc
          (String.concat ",\n" (List.map cell cells)));
    Printf.printf "bap_gate: wrote %d cells to %s\n" (List.length cells) baseline_file;
    0
  | _, _, failed ->
    List.iter (Printf.printf "FAILED %s\n") failed;
    Printf.printf "refusing to write a baseline while a check fails\n";
    1

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

let run mode baseline_file jobs =
  Supervisor.install_exit_handlers ();
  let jobs = max 1 jobs in
  match mode with
  | `Write -> write ~baseline_file ~jobs
  | `Check -> check ~baseline_file ~jobs
  | `Trace_overhead -> trace_overhead ~jobs

let cmd =
  let mode =
    Arg.(
      value
      & vflag `Check
          [
            ( `Check,
              info [ "check" ]
                ~doc:
                  "Compare the sweep's cells and the allocation rate against the \
                   baseline (default)." );
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
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Worker domains for the sweep.")
  in
  Cmd.v
    (Cmd.info "bap_gate"
       ~doc:"Bench-regression gate: pinned sweep cells and allocation rate vs the baseline")
    Term.(const run $ mode $ baseline $ jobs)

let () = exit (Cmd.eval' cmd)
