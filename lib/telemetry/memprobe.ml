(* Memprobe: the allocation half of the telemetry spine.

   Per-span attribution is not done here: with the probe on, every
   [Telemetry.span] stamps its domain-local minor-word delta on its End
   event and folds its GC deltas into the metrics registry as a
   self-time frame. This module is the probe's public face — the
   on/off switch with its process baseline, whole-process GC
   snapshots, and an optional [Gc.Memprof]-backed sampling profiler
   that labels allocation backtraces with the innermost open span.

   Everything is off by default, and with the probe off instrumented
   code emits nothing extra, so traces keep their exact bytes.

   [Gc] reads are confined to lib/telemetry: the D002 lint rule pins
   [Gc.quick_stat]/[Gc.minor_words]/[Gc.Memprof.*] there the same way
   it pins the wall clock to the timing shims, so allocation numbers
   flow through one audited probe. *)

(* ---------- process snapshots (Gc.quick_stat) ---------- *)

type snapshot = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
}

let snapshot () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
  }

(* Counter fields subtract; level fields (heap, compactions count as a
   level too when read as "current") are kept from [after] so a delta
   still answers "where is the heap now". *)
let delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
    heap_words = after.heap_words;
  }

(* ---------- enable/disable ---------- *)

(* The switch itself lives next to [Telemetry.span], its only reader. *)
let baseline : snapshot option Atomic.t = Atomic.make None

(* [Gc.quick_stat]'s [minor_words] counts a domain's words only once a
   minor collection has published them, a whole minor heap at a time.
   Both ends of [process_delta] collect first ([Gc.minor] empties every
   domain's minor heap), so the delta is exact to the word. *)
let exact_snapshot () =
  Gc.minor ();
  snapshot ()

let enable () =
  Atomic.set baseline (Some (exact_snapshot ()));
  Telemetry.set_alloc_probe true

let disable () = Telemetry.set_alloc_probe false

let process_delta () =
  match Atomic.get baseline with
  | Some before -> delta ~before ~after:(exact_snapshot ())
  | None -> exact_snapshot ()

let domain_minor_words () = Gc.minor_words ()

(* ---------- sampling profiler (Gc.Memprof) ---------- *)

(* The sampler maps allocation backtraces to the phase on top of the
   sampling domain's frame stack. Callbacks run at allocation points,
   so they must never take a lock a slow path holds: samples accumulate
   in per-domain tables (registered once per domain under a mutex, the
   same discipline as the metrics shards) and are merged on read.

   OCaml 5.1's runtime ships the Memprof interface but refuses to start
   it under multicore ([Failure "Gc.memprof.start: not implemented in
   multicore"]); 5.2 restored it. [start_sampling] therefore reports
   availability instead of assuming it, and every consumer degrades to
   "no sampled sites" with the failure reason in hand. *)

type sample_table = (string * string, int ref) Hashtbl.t

type sampler = {
  tables_mu : Mutex.t;
  mutable tables : sample_table list;
}

let sampler : sampler option Atomic.t = Atomic.make None
let sampling_on : bool Atomic.t = Atomic.make false
let sampling_error : string option Atomic.t = Atomic.make None

let sampler_get () =
  match Atomic.get sampler with
  | Some s -> s
  | None ->
    let s = { tables_mu = Mutex.create (); tables = [] } in
    if Atomic.compare_and_set sampler None (Some s) then s
    else Option.get (Atomic.get sampler)

let table_key : sample_table Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let t : sample_table = Hashtbl.create 64 in
      let s = sampler_get () in
      Mutex.lock s.tables_mu;
      s.tables <- t :: s.tables;
      Mutex.unlock s.tables_mu;
      t)

let site_of callstack =
  match Printexc.backtrace_slots callstack with
  | None -> "<unknown>"
  | Some slots ->
    let rec pick i =
      if i >= Array.length slots then "<unknown>"
      else
        match Printexc.Slot.location slots.(i) with
        | Some l
          when not (Filename.basename l.Printexc.filename = "memprobe.ml") ->
          Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
        | _ -> pick (i + 1)
    in
    pick 0

let record_sample (a : Gc.Memprof.allocation) =
  let phase =
    match Telemetry.innermost_frame () with Some p -> p | None -> "(no phase)"
  in
  let site = site_of a.Gc.Memprof.callstack in
  let t = Domain.DLS.get table_key in
  (match Hashtbl.find_opt t (phase, site) with
  | Some r -> r := !r + a.Gc.Memprof.n_samples
  | None -> Hashtbl.add t (phase, site) (ref a.Gc.Memprof.n_samples));
  None

let start_sampling ?(rate = 1e-4) () =
  if Atomic.get sampling_on then true
  else
    try
      (* 5.1 returns unit, 5.2 returns an abstract [t]; [ignore] keeps
         the call well-typed on both compilers. *)
      ignore
        (Gc.Memprof.start ~sampling_rate:rate ~callstack_size:16
           {
             Gc.Memprof.null_tracker with
             Gc.Memprof.alloc_minor = record_sample;
             alloc_major = record_sample;
           });
      Atomic.set sampling_on true;
      Atomic.set sampling_error None;
      true
    with Failure msg ->
      Atomic.set sampling_error (Some msg);
      false

let stop_sampling () =
  if Atomic.get sampling_on then begin
    Gc.Memprof.stop ();
    Atomic.set sampling_on false
  end

let sampling_failure () = Atomic.get sampling_error

let samples () =
  match Atomic.get sampler with
  | None -> []
  | Some s ->
    let merged : sample_table = Hashtbl.create 64 in
    Mutex.lock s.tables_mu;
    let tables = s.tables in
    Mutex.unlock s.tables_mu;
    List.iter
      (fun t ->
        (* LINT: waive D003 commutative merge; the fold below is sorted *)
        Hashtbl.iter
          (fun key n ->
            match Hashtbl.find_opt merged key with
            | Some r -> r := !r + !n
            | None -> Hashtbl.add merged key (ref !n))
          t)
      tables;
    Hashtbl.fold (fun (phase, site) n acc -> (phase, site, !n) :: acc) merged []
    |> List.sort compare

(* Sampled sites and the process total ride the trace as instants on
   whatever track the caller is on, so a trace file is self-contained
   for [bap_trace alloc] and byte-stable for a fixed sample set. *)
let flush_to_trace () =
  List.iter
    (fun (phase, site, n) ->
      Telemetry.instant ~cat:"alloc" ~name:"alloc.sample"
        ~attrs:(fun () ->
          [
            ("phase", Telemetry.Str phase);
            ("site", Telemetry.Str site);
            ("samples", Telemetry.Int n);
          ])
        ())
    (samples ());
  Telemetry.instant ~cat:"alloc" ~name:"alloc.process"
    ~attrs:(fun () ->
      let d = process_delta () in
      [
        ("minor_words", Telemetry.Int (int_of_float d.minor_words));
        ("promoted_words", Telemetry.Int (int_of_float d.promoted_words));
        ("major_words", Telemetry.Int (int_of_float d.major_words));
        ("minor_collections", Telemetry.Int d.minor_collections);
        ("major_collections", Telemetry.Int d.major_collections);
        ("compactions", Telemetry.Int d.compactions);
        ("heap_words", Telemetry.Int d.heap_words);
      ])
    ()
