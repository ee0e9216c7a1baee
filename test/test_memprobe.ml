(* The allocation probe (Telemetry.span with Memprobe on): it must never
   perturb results or probe-off trace bytes, its per-span counters must
   obey the same exact merge laws as every other metric and agree with
   the trace, and the alloc report must round-trip through its own
   parser. *)

module Tel = Bap_telemetry.Telemetry
module Memprobe = Bap_telemetry.Memprobe
module Analysis = Bap_telemetry.Analysis
module Pool = Bap_exec.Pool
module Plan = Bap_exec.Plan
module Engine = Bap_exec.Engine
module Rng = Bap_sim.Rng
module V = Bap_core.Value.Int
module S = Bap_core.Stack.Make (V)

(* Unique per call without reading the clock (same idiom as test_exec). *)
let temp_seq = Atomic.make 0

let temp_file ext =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bap-mem-test-%d-%d%s" (Unix.getpid ())
       (Atomic.fetch_and_add temp_seq 1)
       ext)

let with_tel ?wall mode f =
  Tel.install ?wall mode;
  Fun.protect ~finally:Tel.shutdown f

(* Every test leaves the probe off, whatever happens inside. *)
let with_probe f =
  Memprobe.enable ();
  Fun.protect ~finally:Memprobe.disable f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* One small but non-trivial execution of the full unauth stack. *)
let small_run seed =
  let n = 7 in
  let t = 2 in
  let faulty = [| 3 |] in
  let rng = Rng.create seed in
  let inputs = Array.init n (fun _ -> Rng.int rng 2) in
  let advice = Bap_prediction.Gen.perfect ~n ~faulty in
  S.run_unauth ~t ~faulty ~inputs ~advice ~adversary:Bap_sim.Adversary.silent ()

(* ---------- probe on/off: results byte-identical ---------- *)

(* A sweep whose rendered rows capture the protocol results verbatim:
   the cross-check surface for "the probe changed nothing". *)
let sweep_rows ~jobs =
  let out = ref [] in
  let cell seed =
    Plan.row_cell
      (Printf.sprintf "seed=%d" seed)
      (fun () ->
        let o = small_run seed in
        [
          Printf.sprintf "%d,%d,%d" o.S.R.rounds o.S.R.honest_sent
            o.S.R.honest_bits;
        ])
  in
  let plan =
    {
      Plan.exp_id = "MEM";
      scope = "unit";
      cells = List.map cell (List.init 6 (fun i -> 700 + i));
      render = (fun rows -> out := rows);
    }
  in
  Pool.with_pool ~jobs (fun pool -> ignore (Engine.run ~pool [ plan ]));
  !out

let render_rows rows =
  String.concat "\n"
    (List.map
       (fun (key, rs) -> key ^ ": " ^ String.concat ";" (List.concat rs))
       rows)

let test_probe_identity () =
  (* jobs 1 and jobs 8, probe off then on: the rendered sweep output is
     byte-identical in all four corners. *)
  let off1 = render_rows (sweep_rows ~jobs:1) in
  let off8 = render_rows (sweep_rows ~jobs:8) in
  let on1, on8 =
    with_probe (fun () -> (render_rows (sweep_rows ~jobs:1),
                           render_rows (sweep_rows ~jobs:8)))
  in
  Alcotest.(check bool) "sweep produced rows" true (off1 <> "");
  Alcotest.(check string) "probe-off: jobs 1 = jobs 8" off1 off8;
  Alcotest.(check string) "probe on = probe off (jobs 1)" off1 on1;
  Alcotest.(check string) "probe on = probe off (jobs 8)" off1 on8

let test_probe_off_trace_clean () =
  (* With the probe off the trace carries no allocation attribute at
     all — the byte-identity guarantee for traces, not just results. *)
  let lines ~probe =
    with_tel Tel.Memory (fun () ->
        if probe then
          with_probe (fun () -> ignore (small_run 11))
        else ignore (small_run 11);
        List.mapi (fun i e -> Tel.to_json_line ~tid:i e) (Tel.events ()))
  in
  let off = String.concat "\n" (lines ~probe:false) in
  let on = String.concat "\n" (lines ~probe:true) in
  Alcotest.(check bool) "probe-off trace has no minor_words" false
    (contains off "minor_words");
  Alcotest.(check bool) "probe-on trace attributes allocation" true
    (contains on "minor_words")

(* ---------- metric merge laws for the alloc counters ---------- *)

(* Allocate an exactly countable amount on the minor heap: n conses,
   3 words each. Kept opaque so flambda cannot erase it. *)
let churn n =
  let rec build acc i = if i = 0 then acc else build (i :: acc) (i - 1) in
  ignore (Sys.opaque_identity (build [] n))

let test_alloc_counters_merge () =
  with_tel Tel.Counters_only (fun () ->
      with_probe (fun () ->
          Pool.with_pool ~jobs:4 (fun pool ->
              let tasks =
                Array.init 100 (fun i () ->
                    Tel.span ~name:"load" (fun () -> churn 1000);
                    i)
              in
              ignore (Pool.run_all pool tasks)));
      let s = Tel.Metrics.snapshot () in
      Alcotest.(check (option int)) "span count sums exactly across domains"
        (Some 100)
        (List.assoc_opt "alloc.spans/load" s.Tel.Metrics.counters);
      match List.assoc_opt "alloc.minor_words/load" s.Tel.Metrics.counters with
      | None -> Alcotest.fail "alloc.minor_words/load missing"
      | Some w ->
        (* 100 spans x 1000 conses x 3 words each, plus closure noise:
           the merged total must carry at least the guaranteed part. *)
        Alcotest.(check bool)
          (Printf.sprintf "merged minor words cover the churn (%d)" w)
          true
          (w >= 100 * 1000 * 3))

let test_alloc_self_time () =
  (* Self-time semantics: a nested phase's words are subtracted from
     its parent, so every word lands under the innermost covering span
     exactly once — while the parent's histogram still observes the
     inclusive total. *)
  with_tel Tel.Counters_only (fun () ->
      with_probe (fun () ->
          Tel.span ~name:"outer" (fun () ->
              Tel.span ~name:"inner" (fun () -> churn 30_000)));
      let s = Tel.Metrics.snapshot () in
      let counter name =
        Option.value ~default:0
          (List.assoc_opt name s.Tel.Metrics.counters)
      in
      let inner = counter "alloc.minor_words/inner" in
      let outer = counter "alloc.minor_words/outer" in
      Alcotest.(check bool)
        (Printf.sprintf "inner self-time carries the churn (%d)" inner)
        true
        (inner >= 30_000 * 3);
      Alcotest.(check bool)
        (Printf.sprintf "outer self-time excludes the child (%d)" outer)
        true
        (outer < 30_000);
      match List.assoc_opt "alloc.span_minor_words/outer" s.Tel.Metrics.hists with
      | None -> Alcotest.fail "outer span histogram missing"
      | Some h ->
        Alcotest.(check bool) "outer histogram is inclusive of the child" true
          (h.Tel.Metrics.total >= inner))

type _ Effect.t += Park : unit Effect.t

let test_abandoned_frames () =
  (* A run aborted mid-round leaves process 0's fiber suspended inside
     its open spans. Closing the enclosing span must discard those
     frames, fold its own, and leave the stack empty for what follows. *)
  let parked () =
    Effect.Deep.match_with
      (fun () -> Tel.span ~name:"orphan" (fun () -> Effect.perform Park))
      ()
      {
        Effect.Deep.retc = ignore;
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Park -> Some (fun (_ : (a, unit) Effect.Deep.continuation) -> ())
            | _ -> None);
      }
  in
  with_tel Tel.Counters_only (fun () ->
      with_probe (fun () ->
          Tel.span ~name:"run" parked;
          Alcotest.(check (option string)) "no frame left open" None
            (Tel.innermost_frame ());
          Tel.span ~name:"next" (fun () -> churn 1000));
      let s = Tel.Metrics.snapshot () in
      let spans name = List.assoc_opt ("alloc.spans/" ^ name) s.Tel.Metrics.counters in
      Alcotest.(check (option int)) "the enclosing span folds" (Some 1) (spans "run");
      Alcotest.(check (option int)) "the abandoned span never closes" None
        (spans "orphan");
      Alcotest.(check (option int)) "later spans fold normally" (Some 1) (spans "next"))

let test_process_delta_exact () =
  (* The process total counts words still on the minor heap: a small
     allocation shows as itself, not as zero or a whole minor heap. *)
  with_probe (fun () ->
      let before = Memprobe.domain_minor_words () in
      churn 10_000;
      let allocated = int_of_float (Memprobe.domain_minor_words () -. before) in
      let got = int_of_float (Memprobe.process_delta ()).Memprobe.minor_words in
      Alcotest.(check bool)
        (Printf.sprintf "process minor words %d within [%d, %d + 1000]" got allocated allocated)
        true
        (allocated >= 30_000 && got >= allocated && got <= allocated + 1000))

(* ---------- the alloc report parses its own output ---------- *)

let test_alloc_report_roundtrip () =
  let path = temp_file ".jsonl" in
  Tel.install ~wall:true (Tel.Jsonl path);
  with_probe (fun () -> ignore (small_run 11));
  Tel.shutdown ();
  let evs = Analysis.load path in
  let d = Analysis.attribute evs in
  let rows = Analysis.alloc_rows d in
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 d.Analysis.phases in
  Alcotest.(check bool) "rounds carry attribution" true
    (sum (fun r -> r.Analysis.rounds) > 0 && sum (fun r -> r.Analysis.words) > 0);
  Alcotest.(check bool) "words were measured" true (d.Analysis.total_words > 0);
  Alcotest.(check bool) "per-phase rows present" true (rows <> []);
  (* The rows partition the measured total: every word lands once. *)
  let row_sum = List.fold_left (fun acc (_, r) -> acc + r.Analysis.words) 0 rows in
  Alcotest.(check int) "rows partition the total" d.Analysis.total_words row_sum;
  (* The human-facing table round-trips through its own parser with the
     exact same numbers. *)
  let report = Analysis.alloc_report evs in
  let parsed = Analysis.parse_alloc_report report in
  Alcotest.(check bool) "parser recovered rows" true (parsed <> []);
  List.iter
    (fun (name, words) ->
      match List.assoc_opt name rows with
      | Some r -> Alcotest.(check int) ("row " ^ name) r.Analysis.words words
      | None -> Alcotest.failf "parsed row %s not in alloc_rows" name)
    parsed;
  Alcotest.(check int) "parser recovered every row" (List.length rows)
    (List.length parsed);
  Sys.remove path

(* ---------- the contract: registry and trace agree ---------- *)

let test_registry_matches_trace () =
  (* Small runs inside a sweep, probe on, trace and registry both live:
     every sim/exec/core End event ends in its minor_words, and every
     folding span name has exactly one alloc.spans count per Begin
     event. The scheduler's round records words but is no frame. *)
  let evs, snap =
    with_tel Tel.Memory (fun () ->
        with_probe (fun () -> ignore (sweep_rows ~jobs:1));
        (Tel.events (), Tel.Metrics.snapshot ()))
  in
  List.iter
    (fun e ->
      if e.Tel.ph = Tel.End && List.mem e.Tel.cat [ "sim"; "exec"; "core" ] then
        match List.rev e.Tel.attrs with
        | ("minor_words", Tel.Int _) :: _ -> ()
        | _ -> Alcotest.failf "%s End event lacks a trailing minor_words" e.Tel.name)
    evs;
  let begins name =
    List.length
      (List.filter (fun e -> e.Tel.ph = Tel.Begin && e.Tel.name = name) evs)
  in
  let names =
    List.sort_uniq String.compare
      (List.filter_map
         (fun e ->
           if e.Tel.ph = Tel.Begin && e.Tel.name <> "round" then Some e.Tel.name
           else None)
         evs)
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " spans present") true (List.mem name names))
    [ "wrapper"; "phase"; "gc"; "sim.run"; "cell"; "sweep" ];
  List.iter
    (fun name ->
      Alcotest.(check (option int))
        ("alloc.spans/" ^ name ^ " = Begin count")
        (Some (begins name))
        (List.assoc_opt ("alloc.spans/" ^ name) snap.Tel.Metrics.counters))
    names;
  Alcotest.(check (option int)) "round is not a frame" None
    (List.assoc_opt "alloc.spans/round" snap.Tel.Metrics.counters)

(* ---------- the contract: probe-off bytes are frozen ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_probe_off_golden () =
  (* The probe-off logical trace of one small run, byte for byte as the
     pre-refactor instrumentation wrote it. Found from the dune sandbox
     (runtest) or from the repo root (dune exec). *)
  let golden =
    List.find Sys.file_exists
      [ "golden/small_run.jsonl"; "test/golden/small_run.jsonl" ]
  in
  let path = temp_file ".jsonl" in
  Tel.install ~wall:true (Tel.Jsonl path);
  ignore (small_run 11);
  Tel.shutdown ();
  let got = Analysis.strip_wall (read_file path) in
  Sys.remove path;
  Alcotest.(check string) "stripped trace = golden"
    (read_file golden) got

let suite =
  [
    Alcotest.test_case "probe on/off: sweep rows byte-identical (jobs 1/8)"
      `Quick test_probe_identity;
    Alcotest.test_case "probe off: trace carries no alloc attribute" `Quick
      test_probe_off_trace_clean;
    Alcotest.test_case "alloc counters merge exactly across domains" `Quick
      test_alloc_counters_merge;
    Alcotest.test_case "self-time: words land under the innermost span" `Quick
      test_alloc_self_time;
    Alcotest.test_case "abandoned fiber: its frames do not leak" `Quick
      test_abandoned_frames;
    Alcotest.test_case "process delta counts a small allocation exactly" `Quick
      test_process_delta_exact;
    Alcotest.test_case "alloc report parses its own output" `Quick
      test_alloc_report_roundtrip;
    Alcotest.test_case "probe on: alloc registry agrees with the trace" `Quick
      test_registry_matches_trace;
    Alcotest.test_case "probe off: small-run trace matches the golden" `Quick
      test_probe_off_golden;
  ]
