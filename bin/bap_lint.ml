(* CLI: the project-invariant static-analysis gate.

   Walks every .ml under lib/, bin/, test/, bench/ and enforces the rule
   catalog of lib/lint (determinism, cell purity, domain safety,
   layering; see DESIGN.md "Static analysis"). A committed
   lint-baseline.json grandfathers pre-existing findings, so the gate
   fails only on new violations.

   Usage:
     dune exec bin/bap_lint.exe --                      # gate (human output)
     dune exec bin/bap_lint.exe -- --json               # machine-readable
     dune exec bin/bap_lint.exe -- --update-baseline    # regenerate grandfather file
     dune exec bin/bap_lint.exe -- --rules              # print the catalog *)

open Cmdliner
module Baseline = Bap_lintlib.Baseline
module Engine = Bap_lintlib.Engine
module Finding = Bap_lintlib.Finding
module Report = Bap_lintlib.Report

let list_rules () =
  List.iter
    (fun (r : Finding.rule) ->
      Printf.printf "%s  [%s]  %s\n" r.Finding.id
        (Finding.severity_to_string r.Finding.severity)
        r.Finding.summary)
    Finding.catalog;
  0

let run mode root baseline_file json =
  let baseline_file =
    match baseline_file with
    | Some f -> f
    | None -> Filename.concat root "lint-baseline.json"
  in
  match mode with
  | `Rules -> list_rules ()
  | `Update ->
    let findings = Engine.lint_tree ~root in
    Baseline.save baseline_file findings;
    Printf.printf "bap_lint: wrote %d finding(s) to %s\n" (List.length findings)
      baseline_file;
    0
  | `Check ->
    let findings = Engine.lint_tree ~root in
    let baseline = Baseline.load baseline_file in
    let diff = Baseline.diff ~baseline findings in
    if json then print_string (Report.to_json diff)
    else Report.pp_human Format.std_formatter diff;
    if diff.Baseline.fresh = [] then 0 else 1

let cmd =
  let mode =
    Arg.(
      value
      & vflag `Check
          [
            (`Check, info [ "check" ] ~doc:"Lint and compare against the baseline (default).");
            ( `Update,
              info [ "update-baseline" ]
                ~doc:"Regenerate the baseline from the current findings." );
            (`Rules, info [ "rules" ] ~doc:"Print the rule catalog and exit.");
          ])
  in
  let root =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR" ~doc:"Repository root to scan (lib/, bin/, test/, bench/).")
  in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Baseline file (default: ROOT/lint-baseline.json).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  Cmd.v
    (Cmd.info "bap_lint"
       ~doc:
         "Static-analysis gate: determinism, cell purity, domain safety and layering \
          invariants over the repo's own sources")
    Term.(const run $ mode $ root $ baseline $ json)

let () = exit (Cmd.eval' cmd)
