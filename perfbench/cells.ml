(* Running a workload's cells through the repo's engine, one cell per
   Engine.run call, with crash-recovery probes spread over the run.

   A shared host changes speed by a third or more in phases of seconds
   to tens of seconds. A probe taken only at the end
   of a run reads whatever phase the end fell in; probes interleaved
   over the run read the same mix of phases as the run's other
   metrics. The probes' own time is excluded from the run's wall. *)

module Engine = Bap_exec.Engine
module Plan = Bap_exec.Plan
module Journal = Bap_exec.Journal
module Cache = Bap_exec.Cache
module Supervisor = Bap_exec.Supervisor

(* Every cell of [plans] as a plan of its own, in order. *)
let singles plans =
  List.concat_map (fun (p : Plan.t) -> List.map (fun c -> { p with Plan.cells = [ c ] }) p.cells) plans

(* Run [segments] one Engine.run each, calling [probe ()] after every
   [probe_every]-th segment and after the last. The probes sit after
   the same segments on every run, whatever the host's speed, so each
   cell finds the same heap behind it. The summed Engine.run walls and
   their stats. *)
let run ~journal ?supervisor ~probe_every ~probe segments =
  let last = List.length segments - 1 in
  let walls_stats =
    List.mapi
      (fun i seg ->
        let s, dt =
          Span.measure "engine" (fun () -> Engine.run ~journal ?supervisor ~render:false [ seg ])
        in
        if (i + 1) mod probe_every = 0 || i = last then probe ();
        (dt, s))
      segments
  in
  (List.fold_left (fun a (dt, _) -> a +. dt) 0. walls_stats, List.map snd walls_stats)

(* The journal a run leaves when it is killed while appending [victim]'s
   record: every record of [done_] but the victim's, then the victim's
   with its tail torn off. Each entry is (plan, cell key, rows). *)
let tear ~path ~fingerprint ~victim done_ =
  let j = Journal.open_ ~path ~fingerprint () in
  let append ((p : Plan.t), key, rows) =
    Journal.append j (Journal.address j ~exp_id:p.exp_id ~scope:p.scope ~cell_key:key) rows
  in
  List.iter (fun ((p : Plan.t), key, rows) -> if (p.exp_id, key) <> victim then append (p, key, rows)) done_;
  List.iter (fun ((p : Plan.t), key, rows) -> if (p.exp_id, key) = victim then append (p, key, rows)) done_;
  Journal.close j;
  Unix.truncate path ((Unix.stat path).Unix.st_size - 7)

(* Restart after that crash: fingerprint the code, resume the journal,
   and run [segments] again; the engine replays every intact record and
   recomputes the torn one. Returns the engine's stats and the seconds
   from restart to the recovered results. *)
let recover ~path ?supervisor segments =
  Span.measure "recovery" (fun () ->
      let fingerprint = Cache.code_fingerprint () in
      let journal = Journal.open_ ~resume:true ~path ~fingerprint () in
      let stats = Engine.run ~journal ?supervisor ~render:false segments in
      Journal.close journal;
      stats)
