(* Workload `scale`: a fixed sequence of unauthenticated wrapper
   instances at n=1000 through the counted engine.

   The adversary is silent, f cycles over {0, t/2, t}, and the lock-step
   simulator injects no delay, so an instance's latency is processor
   time only. At this size lib/sim's per-round counted accounting
   dominates, which the n<=31 sweep and the n=4 serve workload never
   reach. The instances run as the cells of one plan through the repo's
   engine with a sweep journal, as E1's scale block does, one cell per
   Engine.run call so that crash-recovery probes can be spread over the
   run (see Cells).

   The seed draws each instance's input value, which every process
   holds. The faulty processes are the first f, the early-stopping
   component's worst case. Unanimous inputs and fixed faulty sets make
   an instance's message and bit counts a function of f alone, so the
   oracle can hold them to recorded exact values (split inputs move
   them by a few thousand messages); advice is the ground truth
   (Gen.perfect). *)

module V = Bap_core.Value.Int
module S = Bap_core.Stack.Make (V)
module Engine = Bap_exec.Engine
module Plan = Bap_exec.Plan
module Journal = Bap_exec.Journal
module Cache = Bap_exec.Cache
module Memprobe = Bap_telemetry.Memprobe
module Gen = Bap_prediction.Gen
module Rng = Bap_sim.Rng

let n = 1000
let t = (n - 1) / 3
let fs = [| 0; t / 2; t |]

(* Two instances per value of f for every three seconds of --seconds,
   at least 16 per value: at 0.35-0.55 s an instance on a shared 2-core
   host, the sequence leaves room in the run for the recovery probes. *)
let instances ~seconds = 3 * max 16 (seconds * 2 / 3)

let setups = 5

(* Instances between two recovery probes. *)
let probe_every = 4

type instance = {
  f : int;
  faulty : int array;
  inputs : int array;
  advice : Bap_prediction.Advice.t array;
  key : string;
}

let generate ~seed ~count =
  Array.init count (fun i ->
      let rng = Rng.create ((seed * 1_000_003) + i) in
      let f = fs.(i mod Array.length fs) in
      let faulty = Array.init f Fun.id in
      let inputs = Array.make n (Rng.int rng 2) in
      let advice = Gen.perfect ~n ~faulty in
      { f; faulty; inputs; advice; key = Printf.sprintf "i=%d,f=%d,seed=%d" i f seed })

type measured = { rounds : int; msgs : int; bits : int; agreement : bool; decided : bool }

let execute inst =
  let o =
    S.run_unauth ~adversary:Bap_sim.Adversary.silent ~t ~faulty:inst.faulty
      ~inputs:inst.inputs ~advice:inst.advice ()
  in
  {
    rounds = o.S.R.rounds;
    msgs = o.S.R.honest_sent;
    bits = o.S.R.honest_bits;
    agreement = S.agreement o && S.unanimous_validity ~inputs:inst.inputs ~faulty:inst.faulty o;
    decided = List.length (S.R.honest_decisions o) = n - inst.f;
  }

let row_of m =
  [ string_of_int m.rounds; string_of_int m.msgs; string_of_int m.bits;
    string_of_bool m.agreement; string_of_bool m.decided ]

let measured_of = function
  | [ [ r; m; b; a; d ] ] ->
    Some
      {
        rounds = int_of_string r;
        msgs = int_of_string m;
        bits = int_of_string b;
        agreement = bool_of_string a;
        decided = bool_of_string d;
      }
  | _ -> None

let plan ?(on_cell = fun _ _ _ -> ()) insts =
  {
    Plan.exp_id = "SCALE";
    scope = Printf.sprintf "n=%d" n;
    cells =
      Array.to_list
        (Array.mapi
           (fun i inst ->
             Plan.cell inst.key (fun () ->
                 let w0 = if !Span.on then Memprobe.domain_minor_words () else 0. in
                 let m, dt = Span.measure "instance" (fun () -> execute inst) in
                 let words =
                   if !Span.on then Memprobe.domain_minor_words () -. w0 else 0.
                 in
                 on_cell i dt words;
                 [ row_of m ]))
           insts);
    render = ignore;
  }

let run ~seed ~seconds ~sabotage ~work =
  let jpath = Filename.concat work "scale.journal" in
  let rpath = Filename.concat work "scale-crashed.journal" in
  let count = instances ~seconds in
  (* Set-up: advice and inputs for every instance, then the engine. *)
  let setup_times, (insts, fingerprint, journal) =
    Stat.repeat_setup setups
      ~close:(fun (_, _, j) -> Journal.close j)
      (fun () ->
        let insts = generate ~seed ~count in
        let fingerprint = Cache.code_fingerprint () in
        (insts, fingerprint, Journal.open_ ~path:jpath ~fingerprint ()))
  in
  let lat = Array.make count nan and words = Array.make count 0. in
  let done_ = ref [] in
  let p =
    plan insts ~on_cell:(fun i dt w ->
        lat.(i) <- dt;
        words.(i) <- w)
  in
  let plain = plan insts in
  let failures = ref [] and failed = ref 0 in
  let fail why =
    incr failed;
    failures := why :: !failures
  in
  (* Kill while journaling instance 0, restart, resume every instance
     done so far: the rest replay, instance 0 recomputes. *)
  let recovery_times = ref [] in
  let probe () =
    let done_rows =
      List.filter_map
        (fun i ->
          Option.map
            (fun r -> (plain, insts.(i).key, r))
            (Journal.find journal
               (Journal.address journal ~exp_id:p.exp_id ~scope:p.scope ~cell_key:insts.(i).key)))
        !done_
    in
    Cells.tear ~path:rpath ~fingerprint ~victim:(p.exp_id, insts.(0).key) done_rows;
    let segments =
      Cells.singles [ { plain with cells = List.filteri (fun i _ -> List.mem i !done_) plain.cells } ]
    in
    let stats, dt = Cells.recover ~path:rpath segments in
    recovery_times := dt :: !recovery_times;
    if stats.Engine.executed <> 1 || stats.Engine.journal_hits <> List.length segments - 1 then
      fail
        (Printf.sprintf "scale: resume replayed %d and re-ran %d instance(s)" stats.Engine.journal_hits
           stats.Engine.executed)
  in
  let segments = Cells.singles [ p ] in
  let wall, stats =
    Span.span "sequence" (fun () ->
        Cells.run ~journal
          ~probe_every ~probe
          (List.mapi
             (fun i (seg : Plan.t) ->
               {
                 seg with
                 cells =
                   List.map
                     (fun (c : Plan.cell) -> { c with run = (fun () -> let r = c.run () in done_ := i :: !done_; r) })
                     seg.cells;
               })
             segments))
  in
  Journal.close journal;
  let peak_rss = Stat.peak_rss_mb () in
  (* Read the results back from the journal the run wrote: that is what
     a resumed run would render. *)
  let journal = Journal.open_ ~resume:true ~path:jpath ~fingerprint () in
  let results =
    Array.map
      (fun inst ->
        Option.bind
          (Journal.find journal
             (Journal.address journal ~exp_id:p.exp_id ~scope:p.scope ~cell_key:inst.key))
          measured_of)
      insts
  in
  Journal.close journal;
  if sabotage then
    results.(seed mod count) <-
      Option.map (fun m -> { m with msgs = m.msgs + 1 }) results.(seed mod count);
  Array.iteri
    (fun i inst ->
      let bad why = fail (Printf.sprintf "scale: instance %d (f=%d): %s" i inst.f why) in
      match (results.(i), List.assoc_opt inst.f Expected.scale_counts) with
      | None, _ -> bad "no result"
      | Some m, _ when not (m.decided && m.agreement) -> bad "did not decide the common input"
      | Some m, Some (r, ms, b) when (m.rounds, m.msgs, m.bits) = (r, ms, b) -> ()
      | Some m, _ ->
        bad
          (Printf.sprintf "rounds=%d msgs=%d bits=%d differ from the recorded counts" m.rounds
             m.msgs m.bits))
    insts;
  let executed = List.fold_left (fun a s -> a + s.Engine.executed) 0 stats in
  if executed <> count then fail "scale: engine did not execute every instance";
  let q, tail = Stat.tail lat in
  let recoveries = List.length !recovery_times in
  Printf.eprintf "scale: %d instances at n=%d; op_tail_ms is p%.0f; %d recovery probes\n" count n
    (q *. 100.) recoveries;
  let mean f =
    let total =
      Array.fold_left (fun a r -> match r with Some m -> a +. float_of_int (f m) | None -> a) 0. results
    in
    total /. float_of_int count
  in
  {
    Outcome.attempted = count + recoveries;
    failed = !failed;
    failures = List.rev !failures;
    e2e =
      [
        ("setup_s", Stat.median setup_times);
        ("time_s", wall);
        ("op_p50_ms", Stat.median lat *. 1000.);
        ("op_tail_ms", tail *. 1000.);
        ("inst_per_s", float_of_int count /. wall);
        ("recovery_s", Stat.median (Array.of_list !recovery_times));
        ("peak_rss_mb", peak_rss);
      ];
    layers =
      [
        ("sim.msgs", mean (fun m -> m.msgs));
        ("sim.bits", mean (fun m -> m.bits));
        ("sim.rounds", mean (fun m -> m.rounds));
        ("sim.minor_words", Array.fold_left ( +. ) 0. words /. float_of_int count);
      ];
  }
