(* CLI: analyse JSONL telemetry traces produced with --trace-out.

   Four reports over the logical event stream:

     summary  per-phase rollup of rounds / messages / bits — reconstructs
              the paper-facing accounting (E1's headline numbers) from
              the trace alone;
     diff     regression-style delta table between two traces;
     critpath the slowest cells by wall time, with ASCII timing bars
              (needs a trace recorded with wall-clock stamps, which
              --trace-out always enables);
     alloc    per-phase minor-word attribution with allocation bars and
              the top Memprof-sampled sites (needs a trace recorded with
              the allocation probe on, e.g. bap_tables --alloc-out).

   Examples:
     dune exec bin/bap_tables.exe -- --no-journal --trace-out sweep.jsonl
     dune exec bin/bap_trace.exe -- summary sweep.jsonl
     dune exec bin/bap_trace.exe -- diff before.jsonl after.jsonl
     dune exec bin/bap_trace.exe -- critpath sweep.jsonl --top 10
     dune exec bin/bap_tables.exe -- --no-journal --alloc-out alloc.jsonl
     dune exec bin/bap_trace.exe -- alloc alloc.jsonl *)

open Cmdliner
module Analysis = Bap_telemetry.Analysis

let with_trace path f =
  match Analysis.load path with
  | events -> f events
  | exception Failure msg ->
    Printf.eprintf "bap_trace: %s\n" msg;
    exit 1
  | exception Sys_error msg ->
    Printf.eprintf "bap_trace: %s\n" msg;
    exit 1

let trace_arg ~pos:p ~docv =
  Arg.(required & pos p (some file) None & info [] ~docv ~doc:"JSONL trace file.")

let summary_cmd =
  let run file = with_trace file (fun evs -> print_string (Analysis.summary evs)) in
  Cmd.v
    (Cmd.info "summary" ~doc:"Per-phase round/message/bit rollup of one trace")
    Term.(const run $ trace_arg ~pos:0 ~docv:"TRACE")

let diff_cmd =
  let run a b =
    with_trace a (fun ea ->
        with_trace b (fun eb -> print_string (Analysis.diff ea eb)))
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Delta table between two traces (a vs b)")
    Term.(const run $ trace_arg ~pos:0 ~docv:"TRACE_A" $ trace_arg ~pos:1 ~docv:"TRACE_B")

let critpath_cmd =
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"How many of the slowest cells to show.")
  in
  let run file top =
    with_trace file (fun evs -> print_string (Analysis.critpath ~top evs))
  in
  Cmd.v
    (Cmd.info "critpath" ~doc:"Slowest cells by wall time, with timing bars")
    Term.(const run $ trace_arg ~pos:0 ~docv:"TRACE" $ top)

let alloc_cmd =
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ]
          ~docv:"N"
          ~doc:"How many of the hottest sampled allocation sites to show.")
  in
  let run file top =
    with_trace file (fun evs -> print_string (Analysis.alloc_report ~top evs))
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:
         "Per-phase minor-word attribution (allocation bars, top sampled \
          sites); record the trace with bap_tables --alloc-out")
    Term.(const run $ trace_arg ~pos:0 ~docv:"TRACE" $ top)

let cmd =
  Cmd.group
    (Cmd.info "bap_trace" ~doc:"Analyse JSONL telemetry traces (see --trace-out)")
    [ summary_cmd; diff_cmd; critpath_cmd; alloc_cmd ]

let () = exit (Cmd.eval cmd)
