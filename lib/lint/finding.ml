(* A lint finding and the rule catalog it draws from.

   Every rule has a stable id (never reuse a retired one), a severity,
   and a one-line rationale; DESIGN.md carries the long-form catalog.
   Findings are ordered and compared structurally so that reports,
   baselines, and diffs are all deterministic. *)

type severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

type rule = {
  id : string;
  severity : severity;
  summary : string;  (** One line; the finding message adds specifics. *)
}

(* The catalog. D = determinism, P = cell purity, S = domain safety,
   L = layering / interface hygiene, C = checkability. *)
let catalog =
  [
    {
      id = "D001";
      severity = Error;
      summary =
        "stdlib Random outside lib/sim/rng.ml: all randomness must flow from a \
         seeded Rng stream";
    };
    {
      id = "D002";
      severity = Error;
      summary =
        "wall-clock read (Unix.gettimeofday/Unix.time/Sys.time) outside the \
         timing shims in lib/exec and bin, or a Gc counter read outside the \
         lib/telemetry memprobe";
    };
    {
      id = "D003";
      severity = Error;
      summary =
        "Hashtbl.iter, or Hashtbl.fold whose result is not passed through a \
         sort: iteration order depends on table internals";
    };
    {
      id = "D004";
      severity = Error;
      summary =
        "polymorphic =/compare on a protocol-shaped value, or Hashtbl.hash \
         anywhere: use the domain's equal/compare and an explicit hash";
    };
    {
      id = "D005";
      severity = Error;
      summary = "Marshal anywhere: serialization goes through Wire";
    };
    {
      id = "P001";
      severity = Error;
      summary =
        "printing inside a Plan cell body: cells return rows, rendering is \
         serial by design";
    };
    {
      id = "S001";
      severity = Error;
      summary =
        "top-level mutable state (ref/Hashtbl/lazy/...) in library code runs \
         under the domain pool: use Atomic or waive with a reason";
    };
    {
      id = "L001";
      severity = Error;
      summary =
        "layering: lib/sim and lib/core must not reference Chaos, Exec or \
         Experiments";
    };
    {
      id = "L002";
      severity = Warning;
      summary = "module without an .mli in an interface-complete library";
    };
    {
      id = "C001";
      severity = Error;
      summary =
        "direct Rng draw at an adversary decision point: choices must be \
         expressed as Bap_sim.Decision nodes so bap_check can enumerate them \
         and counterexamples replay deterministically";
    };
    {
      id = "R001";
      severity = Error;
      summary =
        "bare `with _ ->` / `try ... with e -> ()` swallowing exceptions \
         outside the supervisor: failures must surface as typed Cell_failure \
         outcomes";
    };
    {
      id = "X001";
      severity = Error;
      summary = "source file failed to parse";
    };
  ]

let rule id =
  match List.find_opt (fun r -> r.id = id) catalog with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Finding.rule: unknown rule id %s" id)

type t = {
  rule_id : string;
  file : string;  (** Repo-relative path with [/] separators. *)
  line : int;  (** 1-based; 0 for file-level findings. *)
  col : int;  (** 0-based, as in compiler locations. *)
  message : string;
}

let v ~rule_id ~file ~line ~col message =
  ignore (rule rule_id);
  { rule_id; file; line; col; message }

(* (file, line, col, rule) order: report and baseline layout. *)
let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule_id b.rule_id

let severity_of f = (rule f.rule_id).severity

let pp ppf f =
  Fmt.pf ppf "%s:%d:%d: [%s] %s (%s)" f.file f.line f.col f.rule_id f.message
    (severity_to_string (severity_of f))
