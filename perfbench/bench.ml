(* The benchmark's measuring process: one workload, one fresh process.

     bench.exe --workload sweep|scale|serve --seed N --seconds S
               --trace 0|1 --work DIR --serve-exe PATH [--sabotage]

   Prints one JSON line on stdout: {"correct", "attempted", "failed",
   "metrics"}, with every end-to-end metric when untraced and every
   per-layer metric when traced. Everything else goes to stderr: the
   host-speed reading, sample counts, oracle findings, and in a traced
   run the per-layer table beside the end-to-end metric each layer
   should move, plus the tracing overhead. run.py builds and calls it. *)

let e2e_units =
  [
    ("setup_s", "s");
    ("time_s", "s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("inst_per_s", "1/s");
    ("recovery_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let experiments = List.init 13 (fun i -> Printf.sprintf "E%d" (i + 1))

(* Every per-layer metric: unit, and the workload/end-to-end metrics it
   should move. A metric of a layer the traced workload never calls
   reads 0 (no cell ran, no daemon served). *)
let layers =
  let sweep_time = "sweep/time_s" in
  let unauth = "sweep/op_p50_ms serve/inst_per_s" in
  let scale = "scale/op_p50_ms scale/time_s" in
  let serve_path = "serve/op_p50_ms serve/inst_per_s" in
  let restart = "serve/recovery_s serve/setup_s" in
  [
    ("exec.cell_busy_ms", "ms", sweep_time);
    ("exec.engine_overhead_ms", "ms", sweep_time);
  ]
  @ List.map (fun e -> ("experiments." ^ e ^ "_busy_ms", "ms", sweep_time)) experiments
  @ [
      ("exec.retried", "count", sweep_time);
      ("crypto.sign_us", "us", sweep_time);
      ("crypto.verify_us", "us", sweep_time);
      ("core.graded_auth_ms", "ms", sweep_time);
      ("core.ba_class_auth_ms", "ms", sweep_time);
      ("core.wrapper_auth_ms", "ms", sweep_time);
      ("core.dolev_strong_ms", "ms", sweep_time);
      ("sim.round_concrete_ms", "ms", sweep_time);
      ("core.classify_ms", "ms", unauth);
      ("core.graded_unauth_ms", "ms", unauth);
      ("core.ba_class_unauth_ms", "ms", unauth);
      ("core.early_stopping_ms", "ms", unauth);
      ("core.wrapper_unauth_ms", "ms", unauth);
      ("core.wrapper_unauth_words", "words", unauth);
      ("sim.round_counted_ms", "ms", scale);
      ("sim.bitset_inter_us", "us", scale);
      ("sim.plurality_us", "us", scale);
      ("sim.msgs", "count", scale);
      ("sim.bits", "count", scale);
      ("sim.rounds", "count", scale);
      ("sim.minor_words", "words", "scale/op_p50_ms scale/time_s scale/peak_rss_mb");
      ("prediction.gen_ms", "ms", "scale/setup_s");
      ("serve.frame_decode_us", "us", serve_path);
      ("serve.parse_us", "us", serve_path);
      ("serve.execute_us.unauth", "us", serve_path);
      ("serve.execute_us.es", "us", serve_path);
      ("serve.execute_us.pk", "us", serve_path);
      ("serve.render_us", "us", serve_path);
      ("exec.wal_append_us", "us", serve_path);
      ("serve.dispatch_us", "us", serve_path);
      ("serve.server_p50_us", "us", "serve/op_p50_ms");
      ("serve.server_p99_us", "us", "serve/op_tail_ms");
      ("serve.journal_resume_ms", "ms", restart);
      ("exec.code_fingerprint_ms", "ms", restart);
      ("serve.recovered", "count", "serve/recovery_s");
      ("serve.replayed", "count", "serve/recovery_s");
    ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload sweep|scale|serve --seed N --seconds S --trace 0|1 --work DIR \
     --serve-exe PATH [--sabotage]";
  exit 2

let parse_args () =
  let rec go acc = function
    | "--sabotage" :: rest -> go (("--sabotage", "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  (get "--workload", int "--seed", int "--seconds", int "--trace" = 1, get "--work",
   get "--serve-exe", List.mem_assoc "--sabotage" args)

let json_metrics l =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit)
       l)

let () =
  let workload, seed, seconds, trace, work, serve_exe, sabotage = parse_args () in
  if seed < 0 || seconds < 1 then usage ();
  Span.on := trace;
  let host_ms = Stat.host_loop_ms () in
  Printf.eprintf "context: host_loop_ms=%.1f (fixed CPU loop, context only)\n%!" host_ms;
  let o =
    match workload with
    | "sweep" -> Sweep.run ~seed ~seconds ~sabotage ~work
    | "scale" -> Scale.run ~seed ~seconds ~sabotage ~work
    | "serve" -> Serve.run ~seed ~seconds ~sabotage ~work ~exe:serve_exe
    | _ -> usage ()
  in
  List.iter (fun f -> Printf.eprintf "FAILED %s\n" f) o.Outcome.failures;
  let e2e = List.map (fun (k, u) -> (k, List.assoc k o.e2e, u)) e2e_units in
  List.iter
    (fun (k, v, u) -> Printf.eprintf "%s %-12s %14.4f %s\n" workload k v u)
    e2e;
  let time_s = List.assoc "time_s" o.e2e in
  let untraced = Filename.concat work (Printf.sprintf "untraced-%s-%ds" workload seconds) in
  let metrics =
    if not trace then begin
      Out_channel.with_open_text untraced (fun oc -> Printf.fprintf oc "%.17g\n" time_s);
      e2e
    end
    else begin
      let probed = Probes.all ~work in
      let value name =
        match List.assoc_opt name o.layers with
        | Some v -> v
        | None -> Option.value (List.assoc_opt name probed) ~default:0.
      in
      let l = List.map (fun (name, unit, moves) -> (name, value name, unit, moves)) layers in
      Printf.eprintf "\n%-28s %16s %-6s  should move\n" "per-layer metric" "value" "unit";
      List.iter
        (fun (name, v, unit, moves) -> Printf.eprintf "%-28s %16.3f %-6s  %s\n" name v unit moves)
        l;
      (match In_channel.with_open_text untraced In_channel.input_line with
      | Some line ->
        let before = float_of_string line in
        Printf.eprintf "tracing overhead: traced time_s %.4f - untraced time_s %.4f = %+.4f s\n"
          time_s before (time_s -. before)
      | None | (exception Sys_error _) ->
        Printf.eprintf "tracing overhead: traced time_s %.4f; no untraced %s run to compare\n"
          time_s workload);
      let spans = Filename.concat work (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
      Span.write_jsonl spans;
      Printf.eprintf "spans: %s\n" spans;
      List.map (fun (name, v, unit, _) -> (name, v, unit)) l
    end
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "FAILED a metric is not a finite number";
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0 && finite) o.attempted o.failed
    (json_metrics (List.map (fun (k, v, u) -> (k, (if Float.is_finite v then v else 0.), u)) metrics))
