(* The rule engine: one Parsetree walk per file, a catalog of project
   invariants checked along the way.

   The checks are deliberately syntactic (no typing pass), so each rule
   is tuned to be quiet on the repo's idioms and conservative where the
   type is unknowable; the waiver comment (see {!Source}) is the escape
   hatch when a rule is wrong about a specific site. Paths are always
   repo-relative with [/] separators — allowlists are path predicates.

   Rule ids and severities live in {!Finding.catalog}; the long-form
   rationale is DESIGN.md's "Static analysis" section. *)

open Parsetree

(* ---------- path predicates (the allowlists) ---------- *)

let in_dir dir path =
  let prefix = dir ^ "/" in
  String.length path >= String.length prefix
  && String.sub path 0 (String.length prefix) = prefix

let rng_home = "lib/sim/rng.ml"

(* The one place allowed to fold arbitrary exceptions into data: that is
   its whole job (raises become typed Cell_failure outcomes there). *)
let supervisor_home = "lib/exec/supervisor.ml"

(* Wall-clock reads are the business of the execution engine (worker
   pools, cell timing), the telemetry spine (optional wall_us stamps on
   trace events — everything logical stays seq-numbered), the serve
   layer (admission stamps, watchdog deadlines, latency quantiles — a
   service's observable behaviour is wall-clock by nature), and the
   CLIs that report them. *)
let clock_allowed path =
  in_dir "lib/exec" path || in_dir "lib/telemetry" path
  || in_dir "lib/serve" path || in_dir "bin" path

(* D002's GC leg: GC counter reads are the allocation observatory's
   business, and only lib/telemetry (the Memprobe) may perform them.
   A stray Gc.minor_words elsewhere double-counts against the probe's
   per-span attribution and silently diverges on a runtime with
   different GC accounting; everything reads allocation through
   Bap_telemetry.Memprobe instead. *)
let gc_allowed path = in_dir "lib/telemetry" path

(* C001: code that executes adversary behavior (adversary strategies,
   the fault injector), the enumerable choice space, and the checker
   itself must not draw randomness directly — a hidden draw there makes
   counterexample replay nondeterministic and exhaustive enumeration
   unsound. Choices belong in Bap_sim.Decision nodes; Decision.sample
   (lib/sim/decision.ml) is the one bridge back to Rng, and the legacy
   sampled generator Schedule.gen stays legal because Space mirrors its
   alphabet as an enumerable tree. *)
let decision_restricted path =
  path = "lib/sim/adversary.ml" || path = "lib/chaos/injector.ml"
  || path = "lib/chaos/space.ml" || in_dir "lib/check" path
let layer_restricted path = in_dir "lib/sim" path || in_dir "lib/core" path
let in_experiments path = in_dir "lib/experiments" path
let in_lib path = in_dir "lib" path

(* Libraries whose modules must all carry an .mli. lib/core is the
   protocol surface; lib/chaos, lib/check, lib/lint, lib/serve and
   lib/telemetry are post-hygiene code. *)
let interface_complete path =
  in_dir "lib/core" path || in_dir "lib/chaos" path || in_dir "lib/check" path
  || in_dir "lib/lint" path || in_dir "lib/serve" path
  || in_dir "lib/telemetry" path

(* ---------- identifier helpers ---------- *)

let ident_str lid = String.concat "." (Longident.flatten lid)

let strip_stdlib s =
  let p = "Stdlib." in
  if String.length s > String.length p && String.sub s 0 (String.length p) = p then
    String.sub s (String.length p) (String.length s - String.length p)
  else s

let head_module lid = match Longident.flatten lid with [] -> "" | m :: _ -> m

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Head identifier of a (possibly nested) application:
   [head_ident (f a b)] = head of [f]. *)
let rec head_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (ident_str txt))
  | Pexp_apply (f, _) -> head_ident f
  | _ -> None

let sort_functions =
  [
    "List.sort";
    "List.stable_sort";
    "List.fast_sort";
    "List.sort_uniq";
    "Array.sort";
    "Array.stable_sort";
    "Array.fast_sort";
  ]

let is_sort_head e =
  match head_ident e with Some h -> List.mem h sort_functions | None -> false

let cell_markers =
  [ "Plan.cell"; "Plan.row_cell"; "Bap_exec.Plan.cell"; "Bap_exec.Plan.row_cell" ]

let print_functions =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_int";
    "print_char";
    "print_float";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "output_string";
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "Format.print_string";
    "Fmt.pr";
    "Fmt.epr";
    "Table.print";
    "Bap_stats.Table.print";
  ]

let clock_functions = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

(* Specific stdlib Gc entry points, not the head module: lib/core has a
   legitimate local [module Gc = Graded_core_set.Make ...] (graded
   consensus), so only the stdlib functions' full names count. *)
let gc_functions =
  [
    "Gc.stat";
    "Gc.quick_stat";
    "Gc.counters";
    "Gc.minor_words";
    "Gc.allocated_bytes";
    "Gc.minor";
    "Gc.major";
    "Gc.major_slice";
    "Gc.full_major";
    "Gc.compact";
    "Gc.set";
    "Gc.get";
    "Gc.Memprof.start";
    "Gc.Memprof.stop";
  ]
let forbidden_layer_heads = [ "Bap_chaos"; "Bap_exec"; "Bap_experiments" ]

(* Mutable-state creators for S001. [Atomic.make] is the sanctioned
   one and is absent from this list; [lazy] is handled structurally
   (forcing an unsynchronized lazy from two domains races). *)
let state_creators =
  [ "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create" ]

(* Syntactically protocol-shaped: a qualified-constructor application
   ([W.Advice a], [Schedule.Crash_at {...}]) or a record literal.
   Unqualified constructors ([Some x], [x :: tl], [[]]) stay quiet —
   they are overwhelmingly options/lists of primitives in this
   codebase, and flagging them would drown the signal. *)
let rec protocol_shaped e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Ldot _; _ }, Some _) -> true
  | Pexp_record _ -> true
  | Pexp_tuple es -> List.exists protocol_shaped es
  | Pexp_constraint (e, _) -> protocol_shaped e
  | _ -> false

(* R001: a handler that swallows every exception. Catch-all patterns
   ([_], also through alias/constraint/or) always swallow; a named
   binder ([with e -> ...]) only counts when the body is literally [()]
   — binding-and-inspecting or re-raising idioms stay quiet, since the
   exception's identity survives. *)
let rec catch_all_pat p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catch_all_pat p
  | Ppat_or (a, b) -> catch_all_pat a || catch_all_pat b
  | _ -> false

let rec is_unit_expr e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "()"; _ }, None) -> true
  | Pexp_constraint (e, _) -> is_unit_expr e
  | _ -> false

let swallows_exception_case c =
  c.pc_guard = None
  && (catch_all_pat c.pc_lhs
     ||
     match c.pc_lhs.ppat_desc with
     | Ppat_var _ -> is_unit_expr c.pc_rhs
     | _ -> false)

(* ---------- the walk ---------- *)

type ctx = {
  sorted : bool;  (** Inside an expression whose result is sorted. *)
  in_cell : bool;  (** Inside the body argument of [Plan.(row_)cell]. *)
}

let check (src : Source.t) : Finding.t list =
  let path = src.Source.path in
  let findings = ref [] in
  let emit ~loc rule_id msg =
    let pos = loc.Location.loc_start in
    let line = pos.Lexing.pos_lnum in
    let col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol in
    findings := Finding.v ~rule_id ~file:path ~line ~col msg :: !findings
  in
  let ctx = ref { sorted = false; in_cell = false } in
  let with_ctx c f =
    let saved = !ctx in
    ctx := c;
    f ();
    ctx := saved
  in
  (* Checks on every identifier occurrence (including apply heads and
     functions passed as values). *)
  let check_ident ~loc lid =
    let name = strip_stdlib (ident_str lid) in
    if (name = "Random" || starts_with ~prefix:"Random." name) && path <> rng_home then
      emit ~loc "D001"
        (Printf.sprintf "%s: draw from a seeded Bap_sim.Rng stream instead" name);
    if
      (name = "Rng" || starts_with ~prefix:"Rng." name
      || starts_with ~prefix:"Bap_sim.Rng." name)
      && decision_restricted path
    then
      emit ~loc "C001"
        (Printf.sprintf
           "%s draws randomness at an adversary decision point; express the choice \
            as a Bap_sim.Decision node"
           name);
    if List.mem name clock_functions && not (clock_allowed path) then
      emit ~loc "D002"
        (Printf.sprintf "%s reads the wall clock; timing belongs to lib/exec and bin"
           name);
    if List.mem name gc_functions && not (gc_allowed path) then
      emit ~loc "D002"
        (Printf.sprintf
           "%s reads the GC outside lib/telemetry; go through \
            Bap_telemetry.Memprobe"
           name);
    if starts_with ~prefix:"Marshal." name then
      emit ~loc "D005"
        (Printf.sprintf "%s: byte serialization goes through Wire" name);
    if name = "Hashtbl.hash" then
      emit ~loc "D004"
        "Hashtbl.hash is version- and representation-dependent; use an explicit hash";
    if !ctx.in_cell && List.mem name print_functions then
      emit ~loc "P001"
        (Printf.sprintf "%s inside a Plan cell body; cells return rows, render prints"
           name);
    if layer_restricted path && List.mem (head_module lid) forbidden_layer_heads then
      emit ~loc "L001"
        (Printf.sprintf "%s referenced from %s; lib/sim and lib/core sit below it"
           (ident_str lid) path)
  in
  (* S001 helpers: is this structure-level binding a function, and does
     a non-function binding create unsynchronized mutable state? *)
  let rec is_function e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> true
    | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_function e
    | _ -> false
  in
  let rec find_state_creation e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> None (* created at call time, not module init *)
    | Pexp_lazy _ -> Some ("lazy", e.pexp_loc)
    | Pexp_apply (f, args) -> (
      match head_ident f with
      | Some h when List.mem h state_creators -> Some (h, e.pexp_loc)
      | _ ->
        List.fold_left
          (fun acc (_, a) ->
            match acc with Some _ -> acc | None -> find_state_creation a)
          (find_state_creation f) args)
    | Pexp_tuple es | Pexp_array es ->
      List.fold_left
        (fun acc e -> match acc with Some _ -> acc | None -> find_state_creation e)
        None es
    | Pexp_record (fields, base) ->
      let in_fields =
        List.fold_left
          (fun acc (_, e) -> match acc with Some _ -> acc | None -> find_state_creation e)
          None fields
      in
      (match in_fields with
      | Some _ -> in_fields
      | None -> ( match base with Some b -> find_state_creation b | None -> None))
    | Pexp_construct (_, Some e)
    | Pexp_variant (_, Some e)
    | Pexp_constraint (e, _)
    | Pexp_open (_, e) ->
      find_state_creation e
    | Pexp_let (_, bindings, body) ->
      let in_bindings =
        List.fold_left
          (fun acc vb ->
            match acc with Some _ -> acc | None -> find_state_creation vb.pvb_expr)
          None bindings
      in
      (match in_bindings with Some _ -> in_bindings | None -> find_state_creation body)
    | Pexp_sequence (a, b) -> (
      match find_state_creation a with Some s -> Some s | None -> find_state_creation b)
    | Pexp_ifthenelse (c, t, e) -> (
      match find_state_creation c with
      | Some s -> Some s
      | None -> (
        match find_state_creation t with
        | Some s -> Some s
        | None -> ( match e with Some e -> find_state_creation e | None -> None)))
    | _ -> None
  in
  let default = Ast_iterator.default_iterator in
  let iterator =
    {
      default with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> check_ident ~loc txt
          | _ -> ());
          (* R001: exception-swallowing handlers. *)
          (if path <> supervisor_home then
             match e.pexp_desc with
             | Pexp_try (_, cases) ->
               List.iter
                 (fun c ->
                   if swallows_exception_case c then
                     emit ~loc:c.pc_lhs.ppat_loc "R001"
                       "handler swallows every exception; catch the expected \
                        constructors or run the code under the supervisor")
                 cases
             | Pexp_match (_, cases) ->
               List.iter
                 (fun c ->
                   match c.pc_lhs.ppat_desc with
                   | Ppat_exception p
                     when c.pc_guard = None
                          && (catch_all_pat p
                             ||
                             match p.ppat_desc with
                             | Ppat_var _ -> is_unit_expr c.pc_rhs
                             | _ -> false) ->
                     emit ~loc:c.pc_lhs.ppat_loc "R001"
                       "exception case swallows every exception; match the \
                        expected constructors or run the code under the \
                        supervisor"
                   | _ -> ())
                 cases
             | _ -> ());
          match e.pexp_desc with
          | Pexp_apply (f, args) -> (
            (* D003: Hashtbl iteration order. *)
            (match head_ident f with
            | Some "Hashtbl.iter" ->
              emit ~loc:e.pexp_loc "D003"
                "Hashtbl.iter visits bindings in internal order; iterate a sorted \
                 projection instead"
            | Some "Hashtbl.fold" when not !ctx.sorted ->
              emit ~loc:e.pexp_loc "D003"
                "Hashtbl.fold result not passed through a sort; accumulator order \
                 depends on table internals"
            | _ -> ());
            (* D004: polymorphic comparison of protocol-shaped values. *)
            (match head_ident f with
            | Some (("=" | "<>" | "compare") as op)
              when List.exists (fun (_, a) -> protocol_shaped a) args ->
              emit ~loc:e.pexp_loc "D004"
                (Printf.sprintf
                   "polymorphic %s on a protocol value; use the domain's equal/compare"
                   op)
            | _ -> ());
            (* Context transitions. *)
            match (head_ident f, args) with
            | Some "|>", [ (_, l); (_, r) ] when is_sort_head r ->
              with_ctx { !ctx with sorted = true } (fun () -> it.Ast_iterator.expr it l);
              it.Ast_iterator.expr it r
            | Some "@@", [ (_, l); (_, r) ] when is_sort_head l ->
              it.Ast_iterator.expr it l;
              with_ctx { !ctx with sorted = true } (fun () -> it.Ast_iterator.expr it r)
            | Some h, _ when List.mem h sort_functions ->
              it.Ast_iterator.expr it f;
              with_ctx { !ctx with sorted = true } (fun () ->
                  List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args)
            | Some h, _ when List.mem h cell_markers && in_experiments path -> (
              it.Ast_iterator.expr it f;
              match List.rev args with
              | (_, body) :: before ->
                List.iter (fun (_, a) -> it.Ast_iterator.expr it a) (List.rev before);
                with_ctx { !ctx with in_cell = true } (fun () ->
                    it.Ast_iterator.expr it body)
              | [] -> ())
            | _ -> default.expr it e)
          | Pexp_fun _ | Pexp_function _ when !ctx.sorted ->
            (* A lambda body's interior folds are not the sorted result. *)
            with_ctx { !ctx with sorted = false } (fun () -> default.expr it e)
          | _ -> default.expr it e)
      ;
      structure_item =
        (fun it item ->
          (match item.pstr_desc with
          | Pstr_value (_, bindings) when in_lib path ->
            List.iter
              (fun vb ->
                if not (is_function vb.pvb_expr) then
                  match find_state_creation vb.pvb_expr with
                  | Some (creator, loc) ->
                    emit ~loc "S001"
                      (Printf.sprintf
                         "top-level %s is shared mutable state under the domain pool; \
                          use Atomic or waive with a reason"
                         creator)
                  | None -> ())
              bindings
          | _ -> ());
          default.structure_item it item)
      ;
      module_expr =
        (fun it m ->
          (match m.pmod_desc with
          | Pmod_ident { txt; loc } when layer_restricted path ->
            if List.mem (head_module txt) forbidden_layer_heads then
              emit ~loc "L001"
                (Printf.sprintf "module %s referenced from %s; lib/sim and lib/core sit \
                                 below it"
                   (ident_str txt) path)
          | _ -> ());
          default.module_expr it m)
      ;
      open_description =
        (fun it o ->
          (if layer_restricted path then
             let lid = o.popen_expr in
             if List.mem (head_module lid.Location.txt) forbidden_layer_heads then
               emit ~loc:lid.Location.loc "L001"
                 (Printf.sprintf "open %s from %s; lib/sim and lib/core sit below it"
                    (ident_str lid.Location.txt) path));
          default.open_description it o)
      ;
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt; loc }, _) when layer_restricted path ->
            if List.mem (head_module txt) forbidden_layer_heads then
              emit ~loc "L001"
                (Printf.sprintf "type %s referenced from %s; lib/sim and lib/core sit \
                                 below it"
                   (ident_str txt) path)
          | _ -> ());
          default.typ it t)
      ;
    }
  in
  (match src.Source.structure with
  | Some structure -> iterator.structure iterator structure
  | None -> ());
  (match src.Source.parse_error with
  | Some (line, col, msg) ->
    findings := Finding.v ~rule_id:"X001" ~file:path ~line ~col msg :: !findings
  | None -> ());
  !findings
  |> List.filter (fun f ->
         not
           (Source.waived src ~rule_id:f.Finding.rule_id ~line:f.Finding.line))
  |> List.sort Finding.compare_finding

(* L002 is a file-set property, not an AST one: the engine hands us the
   directory listing. [mls] and [mlis] are repo-relative paths. *)
let check_interfaces ~mls ~mlis =
  List.filter_map
    (fun ml ->
      if not (interface_complete ml) then None
      else
        let mli = Filename.remove_extension ml ^ ".mli" in
        if List.mem mli mlis then None
        else
          Some
            (Finding.v ~rule_id:"L002" ~file:ml ~line:1 ~col:0
               (Printf.sprintf
                  "missing %s: modules in this library declare their interface"
                  (Filename.basename mli))))
    (List.sort String.compare mls)
