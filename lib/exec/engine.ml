module Tel = Bap_telemetry.Telemetry

type stats = {
  total_cells : int;
  journal_hits : int;
  executed : int;
  retried : int;
  quarantined : (string * string) list;
  ledgers : (string * Supervisor.attempt_record list) list;
  jobs : int;
  wall : float;
}

let degraded s = s.quarantined <> []

(* A cell of some plan, flattened into the global batch. *)
type slot = {
  plan_idx : int;
  exp_id : string;
  cell : Plan.cell;
  cid : string; (* Plan.cell_id — supervisor / chaos / report identity *)
  jaddr : string option; (* journal address, when a journal is in play *)
  mutable result : Plan.row list option; (* None until computed *)
  mutable ledger : Supervisor.attempt_record list;
  mutable quarantined : bool;
}

let run ?pool ?(journal : Journal.t option) ?(supervisor : Supervisor.t option)
    ?(render = true) (plans : Plan.t list) =
  let t0 = Unix.gettimeofday () in
  (* The sweep span's end attributes are deliberately scheduling-free:
     no jobs, no wall time — those live in the metrics snapshot, so the
     logical trace stays identical across --jobs settings. *)
  let out = ref None in
  Tel.span ~cat:"exec" ~name:"sweep"
    ~attrs:(fun () -> [ ("plans", Tel.Int (List.length plans)) ])
    ~end_attrs:(fun () ->
      match !out with
      | None -> []
      | Some s ->
        [
          ("cells", Tel.Int s.total_cells);
          ("executed", Tel.Int s.executed);
          ("journal_hits", Tel.Int s.journal_hits);
          ("retried", Tel.Int s.retried);
          ("quarantined", Tel.Int (List.length s.quarantined));
        ])
  @@ fun () ->
  let slots =
    List.concat
      (List.mapi
         (fun plan_idx (p : Plan.t) ->
           List.map
             (fun (cell : Plan.cell) ->
               let jaddr =
                 Option.map
                   (fun j ->
                     Journal.address j ~exp_id:p.exp_id ~scope:p.scope
                       ~cell_key:cell.key)
                   journal
               in
               {
                 plan_idx;
                 exp_id = p.exp_id;
                 cell;
                 cid = Plan.cell_id ~exp_id:p.exp_id ~scope:p.scope ~key:cell.key;
                 jaddr;
                 result = None;
                 ledger = [];
                 quarantined = false;
               })
             p.cells)
         plans)
  in
  (* Journal pass: replayed cells still appear in the trace, one instant
     per hit, in deterministic slot order on the main track. *)
  List.iter
    (fun s ->
      match (journal, s.jaddr) with
      | Some j, Some a ->
        s.result <- Journal.find j a;
        if s.result <> None then
          Tel.instant ~cat:"exec" ~name:"cell"
            ~attrs:(fun () ->
              [ ("id", Tel.Str s.cid); ("outcome", Tel.Str "journal-hit") ])
            ()
      | _ -> ())
    slots;
  let misses = List.filter (fun s -> s.result = None) slots in
  (* Journal one freshly computed slot. Runs on the computing domain via
     the pool's on_result hook, so a kill loses only unfinished cells. *)
  let persist s =
    match (journal, s.jaddr, s.result) with
    | Some j, Some a, Some rows -> Journal.append j a rows
    | _ -> ()
  in
  (* Compute pass: the pool when given, inline otherwise. Supervised
     tasks fold every failure into their slot and never raise; the
     unsupervised path keeps the historical re-raise semantics. *)
  let miss_arr = Array.of_list misses in
  (* Each executing cell gets its own telemetry track named by its cell
     id: per-track event order is then the cell's own program order,
     independent of which domain ran it or in what interleaving. *)
  let in_cell_span s body () =
    Tel.with_track s.cid @@ fun () ->
    Tel.span ~cat:"exec" ~name:"cell"
      ~attrs:(fun () -> [ ("id", Tel.Str s.cid) ])
      ~end_attrs:(fun () ->
        [
          ("outcome", Tel.Str (if s.quarantined then "quarantined" else "executed"));
          ("failed_attempts", Tel.Int (List.length s.ledger));
        ])
      body
  in
  let tasks =
    Array.map
      (fun s ->
        match supervisor with
        | None ->
          in_cell_span s (fun () ->
              s.result <- Some (s.cell.Plan.run ());
              ())
        | Some sup ->
          in_cell_span s (fun () ->
              (match Supervisor.supervise sup ~key:s.cid s.cell.Plan.run with
              | Supervisor.Completed { value; ledger; _ } ->
                s.result <- Some value;
                s.ledger <- ledger
              | Supervisor.Quarantined { ledger } ->
                s.quarantined <- true;
                s.ledger <- ledger);
              ()))
      miss_arr
  in
  let on_result i = persist miss_arr.(i) in
  let results =
    match pool with
    | Some pool -> Pool.run_all ~on_result pool tasks
    | None ->
      Array.mapi
        (fun i f ->
          let r = try Ok (f ()) with e -> Error e in
          on_result i;
          r)
        tasks
  in
  (* Without a supervisor a raise still aborts the sweep (after the batch
     has settled and everything finished is journaled). *)
  Array.iter (function Error e -> raise e | Ok () -> ()) results;
  let wall = Unix.gettimeofday () -. t0 in
  (* Render serially, in plan order, cells in canonical order.
     Quarantined cells are simply absent from their plan's input — the
     renderer prints a partial table and the runner marks it DEGRADED. *)
  if render then
    List.iteri
      (fun plan_idx (p : Plan.t) ->
        let mine = List.filter (fun s -> s.plan_idx = plan_idx) slots in
        let keyed =
          List.filter_map
            (fun s ->
              Option.map (fun rows -> (s.cell.Plan.key, rows)) s.result)
            mine
        in
        p.render keyed)
      plans;
  let failed = List.filter (fun s -> s.ledger <> []) misses in
  let s =
    {
      total_cells = List.length slots;
      journal_hits = List.length slots - List.length misses;
      executed = Array.length miss_arr;
      retried =
        List.fold_left
          (fun acc s ->
            acc
            + List.length s.ledger
            - if s.quarantined then 1 else 0
            (* a quarantined cell's final failure was not retried *))
          0 failed;
      quarantined =
        List.filter_map
          (fun s -> if s.quarantined then Some (s.exp_id, s.cell.Plan.key) else None)
          misses;
      ledgers = List.map (fun s -> (s.cid, s.ledger)) failed;
      jobs = (match pool with Some p -> Pool.size p | None -> 1);
      wall;
    }
  in
  Tel.Metrics.counter "exec.cells" s.total_cells;
  Tel.Metrics.counter "exec.journal_hits" s.journal_hits;
  Tel.Metrics.counter "exec.executed" s.executed;
  Tel.Metrics.counter "exec.retried" s.retried;
  Tel.Metrics.counter "exec.quarantined" (List.length s.quarantined);
  out := Some s;
  s

let pp_stats ppf s =
  Format.fprintf ppf "%d cells: %d ran on %d worker%s in %.2fs"
    s.total_cells s.executed s.jobs
    (if s.jobs = 1 then "" else "s")
    s.wall;
  if s.journal_hits > 0 then
    Format.fprintf ppf ", %d from journal" s.journal_hits;
  if s.retried > 0 then
    Format.fprintf ppf ", %d failed attempt(s) retried" s.retried;
  if s.quarantined <> [] then
    Format.fprintf ppf ", DEGRADED: %d cell(s) quarantined"
      (List.length s.quarantined)

(* Machine-readable form of the same report, for --stats-json and
   bap_gate --check-stats. Keys are fixed; the parser side lives in
   Bap_telemetry.Json. *)
let stats_json (s : stats) =
  let esc = Bap_telemetry.Json.escape in
  let attempt (a : Supervisor.attempt_record) =
    let kind, detail =
      match a.kind with
      | Supervisor.Crashed msg -> ("crashed", Printf.sprintf ", \"detail\": \"%s\"" (esc msg))
      | Supervisor.Timed_out d -> ("timed_out", Printf.sprintf ", \"deadline_s\": %g" d)
    in
    Printf.sprintf "{\"attempt\": %d, \"kind\": \"%s\"%s, \"backoff_ms\": %d}"
      a.attempt kind detail a.backoff_ms
  in
  let quarantined =
    List.map
      (fun (exp_id, key) ->
        Printf.sprintf "{\"exp_id\": \"%s\", \"key\": \"%s\"}" (esc exp_id) (esc key))
      s.quarantined
  in
  let ledgers =
    List.map
      (fun (cid, ledger) ->
        Printf.sprintf "{\"cell\": \"%s\", \"attempts\": [%s]}" (esc cid)
          (String.concat ", " (List.map attempt ledger)))
      s.ledgers
  in
  Printf.sprintf
    "{\n\
    \  \"version\": 1,\n\
    \  \"total_cells\": %d,\n\
    \  \"journal_hits\": %d,\n\
    \  \"executed\": %d,\n\
    \  \"retried\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"wall_s\": %.3f,\n\
    \  \"quarantined\": [%s],\n\
    \  \"ledgers\": [%s]\n\
     }\n"
    s.total_cells s.journal_hits s.executed s.retried s.jobs s.wall
    (String.concat ", " quarantined)
    (String.concat ", " ledgers)
