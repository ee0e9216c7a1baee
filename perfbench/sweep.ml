(* Workload `sweep`: the quick E1-E13 table sweep, uncached and serial.

   This is the job users of the reproduction wait on most: regenerating
   the theorem tables. It runs through the repo's own engine
   (Bap_exec.Engine with a supervisor and a fresh sweep journal), with no
   result cache and no pool, because the order in which a parallel pool
   happens to run the two slowest E2 cells swings the wall time by more
   than any bound a benchmark could hold.

   The cells of the sweep are fixed by the paper's parameters and carry
   their own seeds, so the workload seed changes none of its inputs; it
   only picks the row the self-test's sabotage alters. The 119 cells are
   handed to the engine one per Engine.run call so that crash-recovery
   probes can be spread over the run (see Cells). The tables are
   rendered afterwards in canonical order. *)

module Engine = Bap_exec.Engine
module Plan = Bap_exec.Plan
module Journal = Bap_exec.Journal
module Cache = Bap_exec.Cache
module Supervisor = Bap_exec.Supervisor
module Runner = Bap_experiments.Runner

(* One full sweep per this many seconds of --seconds, at least one. A
   sweep takes 16-30 s on a shared 2-core host, so a run overshoots
   --seconds: one sweep alone reads too few of the host's speed phases
   for its wall to repeat from run to run. *)
let seconds_per_sweep = 12

(* The recovery probes tear the journal record of this experiment's
   only cell (~0.25 s of work), so a resumed run replays every other
   cell done so far and recomputes this one. It runs first, so that
   every probe has the same cell to recompute. *)
let victim_exp = "E11"

let setups = 5

(* Cells between two recovery probes: seven probes per sweep. *)
let probe_every = 17

(* The victim first, then every other cell in one fixed shuffled order.
   Shuffled, the cells of each experiment are spread over the whole run
   instead of sharing one few-second window, so a phase of the host's
   speed cannot single out one kind of cell. Fixed, every run leaves
   each cell the same heap behind it: a seeded order moved the median
   cell by a quarter between seeds while the sweep's wall moved by
   less than a tenth. *)
let order plans =
  let first, rest =
    List.partition (fun (p : Plan.t) -> p.exp_id = victim_exp) (Cells.singles plans)
  in
  let rest = Array.of_list rest in
  Bap_sim.Rng.shuffle (Bap_sim.Rng.create 1) rest;
  first @ Array.to_list rest

(* Set-up a user pays before the first cell runs: build the plans and
   open the engine (code fingerprint and a fresh journal). *)
let open_engine path =
  let plans = Runner.plans ~quick:true () in
  let fingerprint = Cache.code_fingerprint () in
  (plans, fingerprint, Journal.open_ ~path ~fingerprint ())

type sweep_run = {
  wall : float;
  rows : (string * string, Plan.row list) Hashtbl.t;
  stats : Engine.stats list;
}

(* Render every table in canonical order from the rows a sweep produced. *)
let render ~work plans rows =
  List.map
    (fun (p : Plan.t) ->
      let keyed =
        List.filter_map
          (fun (c : Plan.cell) ->
            Option.map (fun r -> (c.key, r)) (Hashtbl.find_opt rows (p.exp_id, c.key)))
          p.cells
      in
      (p, Outcome.capture_stdout (Filename.concat work "render.txt") (fun () -> p.render keyed)))
    plans

(* A seeded sabotage for the self-test: alter one row of one cell. *)
let sabotage_rows ~seed plans rows =
  let cells =
    List.concat_map (fun (p : Plan.t) -> List.map (fun (c : Plan.cell) -> (p.exp_id, c.key)) p.cells) plans
  in
  let victim = List.nth cells (seed mod List.length cells) in
  match Hashtbl.find_opt rows victim with
  | Some ((x :: rest) :: more) -> Hashtbl.replace rows victim (((x ^ "*") :: rest) :: more)
  | _ -> ()

let run ~seed ~seconds ~sabotage ~work =
  let jpath = Filename.concat work "sweep.journal" in
  let rpath = Filename.concat work "sweep-crashed.journal" in
  let setup_times, (canonical, fingerprint, journal) =
    Stat.repeat_setup setups
      ~close:(fun (_, _, j) -> Journal.close j)
      (fun () -> open_engine jpath)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let failed = ref 0 in
  let cell_of = Hashtbl.create 256 in
  List.iter
    (fun (p : Plan.t) -> List.iter (fun (c : Plan.cell) -> Hashtbl.replace cell_of (p.exp_id, c.key) (p, c)) p.cells)
    canonical;
  let victim =
    match List.find_opt (fun (p : Plan.t) -> p.exp_id = victim_exp) canonical with
    | Some { cells = c :: _; _ } -> (victim_exp, c.key)
    | _ -> invalid_arg "sweep: no recovery victim"
  in
  let sweeps = max 1 (seconds / seconds_per_sweep) in
  let latencies = ref [] and recovery_times = ref [] in
  let one_sweep i =
    let journal = if i = 0 then journal else Journal.open_ ~path:jpath ~fingerprint () in
    let rows = Hashtbl.create 256 and done_ = ref [] in
    (* Each cell thunk is wrapped so the benchmark sees its latency and
       keeps its rows for the oracle. *)
    let wrap (p : Plan.t) =
      let cell (c : Plan.cell) =
        let run () =
          let r, dt = Span.measure ("cell/" ^ p.exp_id) c.run in
          latencies := dt :: !latencies;
          Hashtbl.replace rows (p.exp_id, c.key) r;
          done_ := (p, c.key, r) :: !done_;
          r
        in
        { c with run }
      in
      { p with cells = List.map cell p.cells }
    in
    Supervisor.with_supervisor Supervisor.default_config (fun supervisor ->
        (* Kill while journaling the victim, restart, resume every cell
           done so far: one replays, the victim recomputes. *)
        let probe () =
          Cells.tear ~path:rpath ~fingerprint ~victim !done_;
          let again = ref None in
          let segments =
            List.rev_map
              (fun ((p : Plan.t), key, _) ->
                let plain, (c : Plan.cell) = Hashtbl.find cell_of (p.exp_id, key) in
                let c =
                  if (p.exp_id, key) = victim then
                    { c with run = (fun () -> let r = c.run () in again := Some r; r) }
                  else c
                in
                { plain with cells = [ c ] })
              !done_
          in
          let stats, dt = Cells.recover ~path:rpath ~supervisor segments in
          recovery_times := dt :: !recovery_times;
          if stats.Engine.executed <> 1
             || stats.Engine.journal_hits <> List.length segments - 1
             || !again <> Hashtbl.find_opt rows victim
          then begin
            incr failed;
            fail "sweep: resume replayed %d and re-ran %d cell(s), %s" stats.Engine.journal_hits
              stats.Engine.executed
              (if !again = Hashtbl.find_opt rows victim then "same rows" else "different rows")
          end
        in
        let wall, stats =
          Cells.run ~journal ~supervisor
            ~probe_every ~probe
            (order (List.map wrap canonical))
        in
        Journal.close journal;
        { wall; rows; stats })
  in
  let runs = List.init sweeps one_sweep in
  let peak_rss = Stat.peak_rss_mb () in
  (* Oracle, outside every timed interval: each table's bytes against the
     recorded digest, every cell run, none quarantined. *)
  let last = List.nth runs (sweeps - 1) in
  if sabotage then sabotage_rows ~seed canonical last.rows;
  List.iter
    (fun r ->
      List.iter
        (fun ((p : Plan.t), text) ->
          let got = Outcome.md5 text in
          match List.assoc_opt p.exp_id Expected.sweep_tables with
          | Some want when want = got -> ()
          | want ->
            failed := !failed + List.length p.cells;
            fail "sweep: %s table digest %s, recorded %s" p.exp_id got
              (Option.value want ~default:"none"))
        (render ~work canonical r.rows);
      let q = List.fold_left (fun a s -> a + List.length s.Engine.quarantined) 0 r.stats in
      if q > 0 then begin
        failed := !failed + q;
        fail "sweep: %d cell(s) quarantined" q
      end)
    runs;
  let cells = Array.of_list !latencies in
  let per_sweep = Array.length cells / sweeps in
  let q, tail = Stat.tail cells in
  let wall = Stat.median (Array.of_list (List.map (fun r -> r.wall) runs)) in
  let recoveries = List.length !recovery_times in
  Printf.eprintf "sweep: %d sweep(s) of %d cells; op_tail_ms is p%.0f over %d cells; %d recovery probes\n"
    sweeps per_sweep (q *. 100.) (Array.length cells) recoveries;
  let per_sweep_ms x = x /. float_of_int sweeps *. 1000. in
  let busy_of exp = per_sweep_ms (Span.busy ("cell/" ^ exp)) in
  let all_busy = List.fold_left (fun a (p : Plan.t) -> a +. busy_of p.exp_id) 0. canonical in
  {
    Outcome.attempted = Array.length cells + recoveries;
    failed = !failed;
    failures = List.rev !failures;
    e2e =
      [
        ("setup_s", Stat.median setup_times);
        ("time_s", wall);
        ("op_p50_ms", Stat.median cells *. 1000.);
        ("op_tail_ms", tail *. 1000.);
        ("inst_per_s", float_of_int per_sweep /. wall);
        ("recovery_s", Stat.median (Array.of_list !recovery_times));
        ("peak_rss_mb", peak_rss);
      ];
    layers =
      [
        ("exec.cell_busy_ms", all_busy);
        ("exec.engine_overhead_ms", per_sweep_ms (Span.busy "engine") -. all_busy);
        ( "exec.retried",
          float_of_int
            (List.fold_left
               (fun a r -> List.fold_left (fun a s -> a + s.Engine.retried) a r.stats)
               0 runs) );
      ]
      @ List.map (fun (p : Plan.t) -> ("experiments." ^ p.exp_id ^ "_busy_ms", busy_of p.exp_id)) canonical;
  }
