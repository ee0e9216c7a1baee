(* The linter linted: every rule id must fire on a minimal positive
   fixture and stay quiet on the idiomatic negative, including the
   allowlist and waiver-comment paths. Fixtures are inline source
   snippets — they only need to parse, not typecheck, which keeps each
   one focused on exactly the shape the rule inspects. *)

module Finding = Bap_lintlib.Finding
module Engine = Bap_lintlib.Engine
module Rules = Bap_lintlib.Rules
module Source = Bap_lintlib.Source
module Baseline = Bap_lintlib.Baseline

let lint ~path text = Engine.lint_string ~path text
let ids fs = List.sort_uniq String.compare (List.map (fun f -> f.Finding.rule_id) fs)
let check_ids name expected fs =
  Alcotest.(check (list string)) name expected (ids fs)

(* ---------- D001: stdlib Random ---------- *)

let test_d001 () =
  check_ids "Random.int in lib/core fires" [ "D001" ]
    (lint ~path:"lib/core/x.ml" "let f () = Random.int 3");
  check_ids "Random.self_init in bin fires" [ "D001" ]
    (lint ~path:"bin/x.ml" "let () = Random.self_init ()");
  check_ids "rng.ml is the one sanctioned home" []
    (lint ~path:"lib/sim/rng.ml" "let f () = Random.int 3");
  check_ids "Rng stream is the idiom" []
    (lint ~path:"lib/core/x.ml" "let f rng = Rng.int rng 3")

let test_d001_location () =
  match lint ~path:"lib/core/x.ml" "let a = 1\nlet f () = Random.bits ()" with
  | [ f ] ->
    Alcotest.(check string) "rule" "D001" f.Finding.rule_id;
    Alcotest.(check int) "line" 2 f.Finding.line
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* ---------- D002: wall clock ---------- *)

let test_d002 () =
  check_ids "gettimeofday in lib/monitor fires" [ "D002" ]
    (lint ~path:"lib/monitor/x.ml" "let f () = Unix.gettimeofday ()");
  check_ids "Sys.time in test fires" [ "D002" ]
    (lint ~path:"test/x.ml" "let f () = Sys.time ()");
  check_ids "lib/exec is the timing shim" []
    (lint ~path:"lib/exec/engine.ml" "let f () = Unix.gettimeofday ()");
  check_ids "bin reports wall-clock" []
    (lint ~path:"bin/bap_gate.ml" "let f () = Unix.gettimeofday ()");
  check_ids "lib/telemetry stamps wall_us" []
    (lint ~path:"lib/telemetry/telemetry.ml" "let f () = Unix.gettimeofday ()");
  check_ids "lib/serve measures service latency" []
    (lint ~path:"lib/serve/server.ml" "let now_us () = Unix.gettimeofday () *. 1e6");
  check_ids "serve waiver does not leak to its neighbours" [ "D002" ]
    (lint ~path:"lib/baselines/baseline_runs.ml" "let f () = Unix.gettimeofday ()");
  check_ids "telemetry waiver does not leak to lib/sim" [ "D002" ]
    (lint ~path:"lib/sim/runtime.ml" "let f () = Unix.gettimeofday ()")

(* The Gc leg of D002: allocation counters are read only through the
   lib/telemetry memprobe. *)
let test_d002_gc () =
  check_ids "Gc.quick_stat in lib/core fires" [ "D002" ]
    (lint ~path:"lib/core/x.ml" "let f () = Gc.quick_stat ()");
  check_ids "Gc.minor_words in bin fires" [ "D002" ]
    (lint ~path:"bin/bap_tables.ml" "let f () = Gc.minor_words ()");
  check_ids "Gc.Memprof.start in lib/exec fires" [ "D002" ]
    (lint ~path:"lib/exec/engine.ml"
       "let f cb = Gc.Memprof.start ~sampling_rate:1e-4 cb");
  check_ids "lib/telemetry is the memprobe's home" []
    (lint ~path:"lib/telemetry/memprobe.ml" "let f () = Gc.quick_stat ()");
  (* A local module happening to be named Gc is not the runtime's Gc:
     the rule matches the catalogued functions, not the bare head. *)
  check_ids "local module Gc stays quiet" []
    (lint ~path:"lib/core/ba.ml"
       "module Gc = Graded_core_set.Make (V)\nlet f x = Gc.run x")

(* ---------- D003: Hashtbl iteration order ---------- *)

let test_d003 () =
  check_ids "bare fold fires" [ "D003" ]
    (lint ~path:"lib/core/x.ml"
       "let f t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []");
  check_ids "fold piped through sort is the idiom" []
    (lint ~path:"lib/core/x.ml"
       "let f t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare");
  check_ids "fold under an applied sort is fine" []
    (lint ~path:"lib/core/x.ml"
       "let f t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])");
  check_ids "sort_uniq counts as a sort" []
    (lint ~path:"lib/core/x.ml"
       "let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort_uniq compare");
  check_ids "Hashtbl.iter always fires" [ "D003" ]
    (lint ~path:"lib/core/x.ml" "let f t = Hashtbl.iter (fun _ v -> ignore v) t");
  check_ids "a sort elsewhere does not bless a fold inside a lambda" [ "D003" ]
    (lint ~path:"lib/core/x.ml"
       "let f ts = List.sort compare (List.concat_map (fun t -> Hashtbl.fold (fun k _ \
        acc -> k :: acc) t []) ts)")

let test_d003_waiver () =
  check_ids "waiver comment above suppresses" []
    (lint ~path:"lib/core/x.ml"
       "(* LINT: waive D003 commutative sum *)\n\
        let f t = Hashtbl.fold (fun _ v acc -> acc + v) t 0");
  check_ids "waiver for another rule does not" [ "D003" ]
    (lint ~path:"lib/core/x.ml"
       "(* LINT: waive S001 wrong id *)\n\
        let f t = Hashtbl.fold (fun _ v acc -> acc + v) t 0")

(* ---------- D004: polymorphic compare / Hashtbl.hash ---------- *)

let test_d004 () =
  check_ids "= on a qualified constructor fires" [ "D004" ]
    (lint ~path:"lib/core/x.ml" "let f m v = m = W.Advice v");
  check_ids "compare on a protocol record fires" [ "D004" ]
    (lint ~path:"lib/core/x.ml" "let f s = compare s { proc = 1; round = 2 }");
  check_ids "Hashtbl.hash fires anywhere" [ "D004" ]
    (lint ~path:"lib/experiments/x.ml" "let f name = Hashtbl.hash name");
  check_ids "= on primitives is fine" []
    (lint ~path:"lib/core/x.ml" "let f x = x = 3");
  check_ids "unqualified option comparison is fine" []
    (lint ~path:"lib/core/x.ml" "let f x = x = Some 3");
  check_ids "compare as a sort argument is fine" []
    (lint ~path:"lib/core/x.ml" "let f xs = List.sort compare xs")

(* ---------- D005: Marshal ---------- *)

let test_d005 () =
  check_ids "Marshal in lib/core fires" [ "D005" ]
    (lint ~path:"lib/core/x.ml" "let f v = Marshal.to_string v []");
  check_ids "Marshal has no home: lib/exec/cache.ml fires too" [ "D005" ]
    (lint ~path:"lib/exec/cache.ml" "let f v = Marshal.to_string v []")

(* ---------- P001: prints in cell bodies ---------- *)

let test_p001 () =
  check_ids "print inside a cell body fires" [ "P001" ]
    (lint ~path:"lib/experiments/e99.ml"
       "let c = Plan.row_cell \"k\" (fun () -> Printf.printf \"x\"; [])");
  check_ids "print in render is the design" []
    (lint ~path:"lib/experiments/e99.ml"
       "let plan = { Plan.exp_id = \"E99\"; render = (fun _ -> Printf.printf \"t\") }");
  check_ids "print function merely passed along still fires" [ "P001" ]
    (lint ~path:"lib/experiments/e99.ml"
       "let c = Plan.cell \"k\" (fun () -> List.iter print_endline [])");
  check_ids "cells outside lib/experiments are not cells" []
    (lint ~path:"test/x.ml"
       "let c = Plan.row_cell \"k\" (fun () -> Printf.printf \"x\"; [])")

(* ---------- S001: top-level mutable state ---------- *)

let test_s001 () =
  check_ids "top-level Hashtbl fires" [ "S001" ]
    (lint ~path:"lib/crypto/x.ml" "let table = Hashtbl.create 8");
  check_ids "top-level ref fires" [ "S001" ]
    (lint ~path:"lib/crypto/x.ml" "let counter = ref 0");
  check_ids "top-level lazy fires" [ "S001" ]
    (lint ~path:"lib/crypto/x.ml" "let v = lazy (compute ())");
  check_ids "ref hidden in a tuple fires" [ "S001" ]
    (lint ~path:"lib/crypto/x.ml" "let pair = (ref 0, 1)");
  check_ids "functor-body state fires too" [ "S001" ]
    (lint ~path:"lib/crypto/x.ml"
       "module Make (V : S) = struct let seen = Hashtbl.create 8 end");
  check_ids "Atomic is the sanctioned form" []
    (lint ~path:"lib/crypto/x.ml" "let counter = Atomic.make 0");
  check_ids "state local to a function is fine" []
    (lint ~path:"lib/crypto/x.ml" "let f () = let t = Hashtbl.create 8 in t");
  check_ids "bin is single-domain driver code" []
    (lint ~path:"bin/x.ml" "let table = Hashtbl.create 8")

let test_s001_waiver () =
  check_ids "same-line waiver suppresses" []
    (lint ~path:"lib/crypto/x.ml"
       "let table = Hashtbl.create 8 (* LINT: waive S001 written once before spawn *)")

(* ---------- L001: layering ---------- *)

let test_l001 () =
  check_ids "core reaching into exec fires" [ "L001" ]
    (lint ~path:"lib/core/x.ml" "let f = Bap_exec.Plan.scope_of_quick");
  check_ids "sim reaching into chaos fires" [ "L001" ]
    (lint ~path:"lib/sim/x.ml" "module S = Bap_chaos.Schedule");
  check_ids "experiments may use exec" []
    (lint ~path:"lib/experiments/x.ml" "let f = Bap_exec.Plan.scope_of_quick");
  check_ids "core using sim is the layering" []
    (lint ~path:"lib/core/x.ml" "module R = Bap_sim.Runtime")

(* ---------- L002: interface hygiene (file-set rule) ---------- *)

let test_l002 () =
  check_ids "core module without mli fires" [ "L002" ]
    (Rules.check_interfaces ~mls:[ "lib/core/foo.ml" ] ~mlis:[]);
  check_ids "mli present is quiet" []
    (Rules.check_interfaces ~mls:[ "lib/core/foo.ml" ] ~mlis:[ "lib/core/foo.mli" ]);
  check_ids "chaos is interface-complete" [ "L002" ]
    (Rules.check_interfaces ~mls:[ "lib/chaos/foo.ml" ] ~mlis:[]);
  check_ids "serve is interface-complete" [ "L002" ]
    (Rules.check_interfaces ~mls:[ "lib/serve/foo.ml" ] ~mlis:[]);
  check_ids "monitor is not (yet) interface-complete" []
    (Rules.check_interfaces ~mls:[ "lib/monitor/foo.ml" ] ~mlis:[])

(* ---------- C001: adversary decisions outside the Decision tree ---------- *)

let test_c001 () =
  check_ids "Rng draw in adversary behavior fires" [ "C001" ]
    (lint ~path:"lib/sim/adversary.ml" "let f rng = Rng.int rng 3");
  check_ids "qualified Rng draw in the fault injector fires" [ "C001" ]
    (lint ~path:"lib/chaos/injector.ml" "let f rng = Bap_sim.Rng.pick rng [ 1; 2 ]");
  check_ids "Rng draw in the checker's choice space fires" [ "C001" ]
    (lint ~path:"lib/chaos/space.ml" "let f rng = Rng.bool rng");
  check_ids "Rng draw in the checker fires" [ "C001" ]
    (lint ~path:"lib/check/explore.ml" "let f rng = Rng.int rng 2");
  check_ids "Decision nodes are the idiom" []
    (lint ~path:"lib/chaos/space.ml"
       "let f () = Decision.choose ~label:\"salt\" ~arity:2 (fun i -> Decision.return i)");
  check_ids "Decision.sample is the sanctioned bridge" []
    (lint ~path:"lib/sim/decision.ml" "let sample rng t = Rng.int rng 3");
  check_ids "the sampled schedule generator stays legal" []
    (lint ~path:"lib/chaos/schedule.ml" "let gen rng = Rng.int rng 6")

let test_c001_waiver () =
  check_ids "waiver comment above suppresses" []
    (lint ~path:"lib/sim/adversary.ml"
       "(* LINT: waive C001 tie-break seeded from the schedule, replay-stable *)\n\
        let f rng = Rng.int rng 3");
  check_ids "waiver for another rule does not" [ "C001" ]
    (lint ~path:"lib/sim/adversary.ml"
       "(* LINT: waive D001 wrong id *)\n\
        let f rng = Rng.int rng 3")

(* ---------- R001: exception-swallowing handlers ---------- *)

let test_r001 () =
  check_ids "bare catch-all fires" [ "R001" ]
    (lint ~path:"lib/core/x.ml" "let f g = try g () with _ -> 0");
  check_ids "named binder discarded to unit fires" [ "R001" ]
    (lint ~path:"lib/core/x.ml" "let f g = try g () with e -> ()");
  check_ids "catch-all through an or-pattern fires" [ "R001" ]
    (lint ~path:"lib/core/x.ml" "let f g = try g () with Not_found | _ -> 0");
  check_ids "exception case in a match fires" [ "R001" ]
    (lint ~path:"lib/core/x.ml"
       "let f g = match g () with x -> x | exception _ -> 0");
  check_ids "typed handler is the idiom" []
    (lint ~path:"lib/core/x.ml" "let f g = try g () with Not_found -> 0");
  check_ids "binding and using the exception is fine" []
    (lint ~path:"lib/exec/x.ml" "let f g = try Ok (g ()) with e -> Error e");
  check_ids "typed exception case is fine" []
    (lint ~path:"lib/core/x.ml"
       "let f g = match g () with x -> x | exception Not_found -> 0");
  check_ids "the supervisor is the sanctioned home" []
    (lint ~path:"lib/exec/supervisor.ml" "let f g = try g () with _ -> 0")

let test_r001_waiver () =
  check_ids "waiver suppresses the guard idiom" []
    (lint ~path:"lib/exec/x.ml"
       "(* LINT: waive R001 keeps worker domains alive *)\n\
        let guarded cb i = try cb i with _ -> ()")

(* ---------- X001: parse failures surface as findings ---------- *)

let test_x001 () =
  check_ids "unparsable source is itself a finding" [ "X001" ]
    (lint ~path:"lib/core/x.ml" "let let let")

(* ---------- baseline round-trip and diff ---------- *)

let test_baseline_roundtrip () =
  let fs =
    [
      Finding.v ~rule_id:"D001" ~file:"lib/core/x.ml" ~line:3 ~col:4 "m";
      Finding.v ~rule_id:"L002" ~file:"lib/core/y.ml" ~line:1 ~col:0 "m";
    ]
  in
  let entries = Baseline.of_json (Baseline.to_json (List.map Baseline.entry_of_finding fs)) in
  Alcotest.(check int) "round-trips both entries" 2 (List.length entries);
  let diff = Baseline.diff ~baseline:entries fs in
  Alcotest.(check int) "all grandfathered" 2 diff.Baseline.grandfathered;
  Alcotest.(check int) "nothing fresh" 0 (List.length diff.Baseline.fresh);
  (* A new finding at another site is fresh; a retired one is stale. *)
  let fs' =
    [
      List.hd fs;
      Finding.v ~rule_id:"D003" ~file:"lib/core/z.ml" ~line:9 ~col:2 "m";
    ]
  in
  let diff' = Baseline.diff ~baseline:entries fs' in
  Alcotest.(check int) "one fresh" 1 (List.length diff'.Baseline.fresh);
  Alcotest.(check string) "fresh is the new rule" "D003"
    (List.hd diff'.Baseline.fresh).Finding.rule_id;
  Alcotest.(check int) "one stale" 1 (List.length diff'.Baseline.stale)

(* ---------- the repo gate itself ---------- *)

(* The acceptance property of the whole PR: linting the checked-out
   tree reports nothing outside the committed baseline. Run from the
   dune sandbox the sources are not all present, so this only runs when
   the tree is visible (developer checkout / lint alias). *)
let test_repo_is_clean () =
  let root = ".." in
  if
    Sys.file_exists (Filename.concat root "lib")
    && Sys.file_exists (Filename.concat root "lint-baseline.json")
  then begin
    let findings = Engine.lint_tree ~root in
    let baseline = Baseline.load (Filename.concat root "lint-baseline.json") in
    let diff = Baseline.diff ~baseline findings in
    Alcotest.(check (list string)) "no findings outside the baseline" []
      (List.map (Format.asprintf "%a" Finding.pp) diff.Baseline.fresh)
  end

let suite =
  [
    Alcotest.test_case "D001 rng" `Quick test_d001;
    Alcotest.test_case "D001 location" `Quick test_d001_location;
    Alcotest.test_case "D002 clock" `Quick test_d002;
    Alcotest.test_case "D002 gc counters" `Quick test_d002_gc;
    Alcotest.test_case "D003 hashtbl order" `Quick test_d003;
    Alcotest.test_case "D003 waiver" `Quick test_d003_waiver;
    Alcotest.test_case "D004 poly compare" `Quick test_d004;
    Alcotest.test_case "D005 marshal" `Quick test_d005;
    Alcotest.test_case "P001 cell purity" `Quick test_p001;
    Alcotest.test_case "S001 global state" `Quick test_s001;
    Alcotest.test_case "S001 waiver" `Quick test_s001_waiver;
    Alcotest.test_case "L001 layering" `Quick test_l001;
    Alcotest.test_case "L002 interfaces" `Quick test_l002;
    Alcotest.test_case "C001 adversary decisions" `Quick test_c001;
    Alcotest.test_case "C001 waiver" `Quick test_c001_waiver;
    Alcotest.test_case "R001 exception swallowing" `Quick test_r001;
    Alcotest.test_case "R001 waiver" `Quick test_r001_waiver;
    Alcotest.test_case "X001 parse failure" `Quick test_x001;
    Alcotest.test_case "baseline round-trip" `Quick test_baseline_roundtrip;
    Alcotest.test_case "repo lints clean" `Quick test_repo_is_clean;
  ]
