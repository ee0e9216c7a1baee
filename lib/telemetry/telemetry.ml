(* Process-wide instrumentation: structured spans with logical
   timestamps, a sharded metrics registry, and pluggable sinks.

   Determinism contract. Every event carries a per-track logical
   sequence number ([seq]); wall-clock time is an *optional* extra field
   ([wall_us]) that only exists when the caller opted in at [install]
   time. A track is written by exactly one domain at a time (the main
   domain owns "main"; an engine cell owns its own track for the
   duration of [with_track]), so per-track event order is the program
   order of that domain and is identical across [--jobs] settings. The
   canonical stream ([events] / the JSONL flush) lists "main" first and
   the remaining tracks sorted by name, which removes the only other
   source of scheduling dependence. Strip [wall_us] and two traces of
   the same seeded run compare byte-equal.

   This module is the single sanctioned home of the wall clock outside
   the execution layer: lint rule D002 allows [Unix.gettimeofday] in
   lib/telemetry (and nowhere else in lib/) precisely so that timing
   stays confined behind this API.

   Overhead contract. When nothing is installed, [span]/[instant]/
   [Metrics.counter] are one [Atomic.get] plus a branch; attribute
   lists are built by thunks that are never called. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type phase = Begin | End | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  seq : int; (* logical timestamp: position within the track *)
  track : string;
  attrs : (string * value) list;
  wall_us : float option;
}

type mode = Counters_only | Memory | Jsonl of string

type track = {
  tname : string;
  tmu : Mutex.t;
  buf : event Queue.t;
  mutable tseq : int;
}

module H = struct
  (* Exact (lossless) histogram summary: merging two summaries gives the
     summary of the concatenated observation streams, so folding the
     per-domain shards in any order yields the same result. *)
  type hist = { count : int; total : int; min_v : int; max_v : int }

  let empty = { count = 0; total = 0; min_v = 0; max_v = 0 }

  let observe h v =
    {
      count = h.count + 1;
      total = h.total + v;
      min_v = (if h.count = 0 then v else min h.min_v v);
      max_v = (if h.count = 0 then v else max h.max_v v);
    }

  let merge a b =
    if a.count = 0 then b
    else if b.count = 0 then a
    else
      {
        count = a.count + b.count;
        total = a.total + b.total;
        min_v = min a.min_v b.min_v;
        max_v = max a.max_v b.max_v;
      }
end

type shard = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  hists : (string, H.hist ref) Hashtbl.t;
}

type state = {
  gen : int;
  mode : mode;
  wall : bool;
  limit : int;
  t0 : float;
  mu : Mutex.t; (* guards [tracks] and [shards] registration *)
  mutable tracks : track list; (* registration order; canonicalised on read *)
  mutable shards : shard list;
  events_total : int Atomic.t;
  dropped_n : int Atomic.t;
}

let state : state option Atomic.t = Atomic.make None
let generation : int Atomic.t = Atomic.make 0

(* Per-domain cache of the current track / metrics shard, tagged with
   the installation generation so a reinstall invalidates stale
   entries. *)
type tls = { mutable g : int; mutable tr : track option; mutable sh : shard option }

let tls_key : tls Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { g = -1; tr = None; sh = None })

let tls_for st =
  let slot = Domain.DLS.get tls_key in
  if slot.g <> st.gen then begin
    slot.g <- st.gen;
    slot.tr <- None;
    slot.sh <- None
  end;
  slot

let new_track name =
  { tname = name; tmu = Mutex.create (); buf = Queue.create (); tseq = 0 }

let find_track st name =
  Mutex.lock st.mu;
  let tr =
    match List.find_opt (fun t -> t.tname = name) st.tracks with
    | Some t -> t
    | None ->
      let t = new_track name in
      st.tracks <- t :: st.tracks;
      t
  in
  Mutex.unlock st.mu;
  tr

let install ?(wall = false) ?(limit = 5_000_000) mode =
  let gen = 1 + Atomic.fetch_and_add generation 1 in
  let st =
    {
      gen;
      mode;
      wall;
      limit;
      t0 = Unix.gettimeofday ();
      mu = Mutex.create ();
      tracks = [ new_track "main" ];
      shards = [];
      events_total = Atomic.make 0;
      dropped_n = Atomic.make 0;
    }
  in
  Atomic.set state (Some st)

let tracing st =
  match st.mode with Counters_only -> false | Memory | Jsonl _ -> true

let enabled () =
  match Atomic.get state with
  | Some st when tracing st -> Some st
  | _ -> None

let cur_track st =
  let slot = tls_for st in
  match slot.tr with
  | Some tr -> tr
  | None ->
    let tr = find_track st "main" in
    slot.tr <- Some tr;
    tr

let with_track name f =
  match enabled () with
  | None -> f ()
  | Some st ->
    let slot = tls_for st in
    let saved = slot.tr in
    slot.tr <- Some (find_track st name);
    Fun.protect ~finally:(fun () -> slot.tr <- saved) f

module Metrics = struct
  type hist = H.hist = { count : int; total : int; min_v : int; max_v : int }

  type snap = {
    counters : (string * int) list;
    gauges : (string * int) list;
    hists : (string * hist) list;
  }

  let merge_hist = H.merge

  let shard_for st =
    let slot = tls_for st in
    match slot.sh with
    | Some sh -> sh
    | None ->
      let sh : shard =
        {
          counters = Hashtbl.create 16;
          gauges = Hashtbl.create 16;
          hists = Hashtbl.create 16;
        }
      in
      Mutex.lock st.mu;
      st.shards <- sh :: st.shards;
      Mutex.unlock st.mu;
      slot.sh <- Some sh;
      sh

  let bump tbl name f init =
    match Hashtbl.find_opt tbl name with
    | Some r -> r := f !r
    | None -> Hashtbl.replace tbl name (ref init)

  let counter name v =
    match Atomic.get state with
    | None -> ()
    | Some st -> bump (shard_for st).counters name (fun x -> x + v) v

  let gauge_max name v =
    match Atomic.get state with
    | None -> ()
    | Some st -> bump (shard_for st).gauges name (fun x -> max x v) v

  let observe name v =
    match Atomic.get state with
    | None -> ()
    | Some st ->
      bump (shard_for st).hists name
        (fun h -> H.observe h v)
        (H.observe H.empty v)

  let sorted_bindings tbl conv =
    Hashtbl.fold (fun k v acc -> (k, conv v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* Fold same-named bindings of a sorted association list. *)
  let group ~merge l =
    let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
    let rec go acc = function
      | [] -> List.rev acc
      | (k, v) :: rest -> (
        match acc with
        | (k', v') :: tl when String.equal k' k -> go ((k', merge v' v) :: tl) rest
        | _ -> go ((k, v) :: acc) rest)
    in
    go [] sorted

  let snapshot () =
    match Atomic.get state with
    | None -> { counters = []; gauges = []; hists = [] }
    | Some st ->
      Mutex.lock st.mu;
      let shards = st.shards in
      Mutex.unlock st.mu;
      let all select conv =
        List.concat_map (fun sh -> sorted_bindings (select sh) conv) shards
      in
      {
        counters = group ~merge:( + ) (all (fun s -> s.counters) (fun r -> !r));
        gauges = group ~merge:max (all (fun s -> s.gauges) (fun r -> !r));
        hists = group ~merge:H.merge (all (fun s -> s.hists) (fun r -> !r));
      }

  let to_json snap =
    let b = Buffer.create 512 in
    let obj name fields render =
      Buffer.add_string b (Printf.sprintf "  \"%s\": {" name);
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\n    \"%s\": %s" (Json.escape k) (render v)))
        fields;
      if fields <> [] then Buffer.add_string b "\n  ";
      Buffer.add_char b '}'
    in
    Buffer.add_string b "{\n  \"version\": 1,\n";
    obj "counters" snap.counters string_of_int;
    Buffer.add_string b ",\n";
    obj "gauges" snap.gauges string_of_int;
    Buffer.add_string b ",\n";
    obj "hists" snap.hists (fun (h : hist) ->
        Printf.sprintf
          "{\"count\": %d, \"total\": %d, \"mean\": %.3f, \"min\": %d, \"max\": %d}"
          h.count h.total
          (if h.count = 0 then 0. else float_of_int h.total /. float_of_int h.count)
          h.min_v h.max_v);
    Buffer.add_string b "\n}\n";
    Buffer.contents b
end

let emit st tr ~name ~cat ~ph ~attrs =
  if Atomic.fetch_and_add st.events_total 1 >= st.limit then
    Atomic.incr st.dropped_n
  else begin
    let wall_us =
      if st.wall then Some ((Unix.gettimeofday () -. st.t0) *. 1e6) else None
    in
    Mutex.lock tr.tmu;
    let seq = tr.tseq in
    tr.tseq <- seq + 1;
    Queue.push { name; cat; ph; seq; track = tr.tname; attrs; wall_us } tr.buf;
    Mutex.unlock tr.tmu
  end

(* ---------- allocation frames ---------- *)

(* With the allocation probe on ([Memprobe.enable] flips the switch),
   every folding span is also a frame on a per-domain stack. A frame
   remembers where its interval started and accumulates its children's
   totals, so on exit [self = total - children] lands under the
   innermost covering span exactly once — the same "innermost wins"
   convention the trace analysis uses for round attribution. Spans
   never migrate domains (a fiber runs its whole protocol on one
   domain; a pool task is a whole cell), so the stack needs no lock.

   Two GC readings, deliberately separated: [Gc.minor_words] is
   domain-local in OCaml 5, hence deterministic per span at any --jobs;
   [Gc.quick_stat] is process-global, so the promoted/major/collection
   deltas are exact at --jobs 1 and approximate above it. *)

let alloc_probe = Atomic.make false
let set_alloc_probe on = Atomic.set alloc_probe on

type frame = {
  fname : string;
  gc0 : Gc.stat;
  mutable child_minor : float;
  mutable child_promoted : float;
  mutable child_major : float;
  mutable child_minor_col : int;
  mutable child_major_col : int;
}

let frames : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let innermost_frame () =
  match !(Domain.DLS.get frames) with [] -> None | fr :: _ -> Some fr.fname

let push_frame name =
  let fr =
    {
      fname = name;
      gc0 = Gc.quick_stat ();
      child_minor = 0.;
      child_promoted = 0.;
      child_major = 0.;
      child_minor_col = 0;
      child_major_col = 0;
    }
  in
  let stack = Domain.DLS.get frames in
  stack := fr :: !stack;
  fr

(* Pop [fr], whose extent allocated [words] on this domain, and fold its
   self-time deltas into [st]'s registry. Frames still open above [fr]
   belong to a fiber that will never resume — process 0 suspended in a
   run that a round limit, a watchdog cancel or an injected crash
   aborted: they are discarded and their words stay with [fr], so no
   later span nests under a dead frame. *)
let pop_frame st fr words =
  let stack = Domain.DLS.get frames in
  let rec below = function
    | top :: rest when top == fr -> Some rest
    | _ :: rest -> below rest
    | [] -> None
  in
  match below !stack with
  | None -> ()
  | Some rest ->
    stack := rest;
    let g = Gc.quick_stat () in
    let promoted = g.Gc.promoted_words -. fr.gc0.Gc.promoted_words in
    let major = g.Gc.major_words -. fr.gc0.Gc.major_words in
    let minor_col = g.Gc.minor_collections - fr.gc0.Gc.minor_collections in
    let major_col = g.Gc.major_collections - fr.gc0.Gc.major_collections in
    (match rest with
    | parent :: _ ->
      parent.child_minor <- parent.child_minor +. words;
      parent.child_promoted <- parent.child_promoted +. promoted;
      parent.child_major <- parent.child_major +. major;
      parent.child_minor_col <- parent.child_minor_col + minor_col;
      parent.child_major_col <- parent.child_major_col + major_col
    | [] -> ());
    let sh = Metrics.shard_for st in
    let count key v = Metrics.bump sh.counters (key ^ fr.fname) (( + ) v) v in
    count "alloc.spans/" 1;
    count "alloc.minor_words/" (int_of_float (words -. fr.child_minor));
    count "alloc.promoted_words/" (int_of_float (promoted -. fr.child_promoted));
    count "alloc.major_words/" (int_of_float (major -. fr.child_major));
    count "alloc.minor_collections/" (minor_col - fr.child_minor_col);
    count "alloc.major_collections/" (major_col - fr.child_major_col);
    let total = int_of_float words in
    Metrics.bump sh.hists
      ("alloc.span_minor_words/" ^ fr.fname)
      (fun h -> H.observe h total)
      (H.observe H.empty total)

let eval = function None -> [] | Some f -> f ()

(* The one instrumentation primitive. Fully off (no sink) it is one
   atomic load; with a sink but neither tracing nor the probe, two.
   Probe-off events carry exactly the caller's attributes; with the
   probe on, [minor_words] is appended last, so a probe-off trace keeps
   its bytes. *)
let span ?(cat = "") ?attrs ?end_attrs ?(fold = true) ~name f =
  match Atomic.get state with
  | None -> f ()
  | Some st ->
    let trace = tracing st and probe = Atomic.get alloc_probe in
    if not (trace || probe) then f ()
    else begin
      let tr = if trace then Some (cur_track st) else None in
      let emit_ph ph attrs =
        match tr with
        | Some tr -> emit st tr ~name ~cat ~ph ~attrs:(attrs ())
        | None -> ()
      in
      emit_ph Begin (fun () -> eval attrs);
      let minor0 = if probe then Gc.minor_words () else 0. in
      let fr = if probe && fold then Some (push_frame name) else None in
      let finish attrs =
        if not probe then emit_ph End attrs
        else begin
          let words = Gc.minor_words () -. minor0 in
          (match fr with Some fr -> pop_frame st fr words | None -> ());
          emit_ph End (fun () ->
              attrs () @ [ ("minor_words", Int (int_of_float words)) ])
        end
      in
      match f () with
      | v ->
        finish (fun () -> eval end_attrs);
        v
      | exception e ->
        finish (fun () -> [ ("error", Str (Printexc.to_string e)) ]);
        raise e
    end

let instant ?(cat = "") ?attrs ~name () =
  match enabled () with
  | None -> ()
  | Some st ->
    let tr = cur_track st in
    emit st tr ~name ~cat ~ph:Instant ~attrs:(eval attrs)

(* "main" first, the rest sorted by name: track order must not leak the
   work-stealing schedule into the canonical stream. *)
let canonical_tracks st =
  Mutex.lock st.mu;
  let tracks = st.tracks in
  Mutex.unlock st.mu;
  let main, rest = List.partition (fun t -> t.tname = "main") tracks in
  main @ List.sort (fun a b -> String.compare a.tname b.tname) rest

let snapshot_track tr =
  Mutex.lock tr.tmu;
  let evs = List.of_seq (Queue.to_seq tr.buf) in
  Mutex.unlock tr.tmu;
  evs

let events () =
  match Atomic.get state with
  | None -> []
  | Some st -> List.concat_map snapshot_track (canonical_tracks st)

let dropped () =
  match Atomic.get state with
  | None -> 0
  | Some st -> Atomic.get st.dropped_n

let attr_json (k, v) =
  Printf.sprintf "\"%s\":%s" (Json.escape k)
    (match v with
    | Int i -> string_of_int i
    | Float f -> Printf.sprintf "%.6g" f
    | Str s -> Printf.sprintf "\"%s\"" (Json.escape s)
    | Bool b -> string_of_bool b)

(* Chrome trace-event compatible line. [wall_us] is deliberately the
   last field so a determinism check can strip it with one regex. *)
let to_json_line ~tid e =
  let ph = match e.ph with Begin -> "B" | End -> "E" | Instant -> "i" in
  let args =
    match e.attrs with
    | [] -> ""
    | l -> Printf.sprintf ",\"args\":{%s}" (String.concat "," (List.map attr_json l))
  in
  let wall =
    match e.wall_us with
    | None -> ""
    | Some w -> Printf.sprintf ",\"wall_us\":%.3f" w
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%d,\"pid\":0,\"tid\":%d,\"track\":\"%s\"%s%s}"
    (Json.escape e.name) (Json.escape e.cat) ph e.seq tid
    (Json.escape e.track) args wall

let flush_jsonl st path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iteri
        (fun tid tr ->
          List.iter
            (fun e ->
              output_string oc (to_json_line ~tid e);
              output_char oc '\n')
            (snapshot_track tr))
        (canonical_tracks st);
      let d = Atomic.get st.dropped_n in
      if d > 0 then
        output_string oc
          (Printf.sprintf
             "{\"name\":\"telemetry.dropped\",\"cat\":\"meta\",\"ph\":\"i\",\"ts\":0,\"pid\":0,\"tid\":0,\"track\":\"main\",\"args\":{\"dropped\":%d}}\n"
             d))

let shutdown () =
  match Atomic.get state with
  | None -> ()
  | Some st ->
    Atomic.set state None;
    (match st.mode with Jsonl path -> flush_jsonl st path | _ -> ())

(* The signal-path twin of [shutdown], on the journal's [signal_close]
   pattern: a handler may have interrupted the very domain that holds
   one of our mutexes mid-[emit], so every lock here is a [try_lock]
   and a contended track is simply skipped — losing at most the events
   of tracks actively being written at the instant of the signal,
   rather than deadlocking the exit path. The [state] swap is the same
   atomic handoff as [shutdown], so the two can race safely: exactly
   one of them flushes. *)
let signal_shutdown () =
  let cur = Atomic.get state in
  match cur with
  | None -> ()
  | Some st ->
    (* CAS on the very option value read above (physical equality):
       rebuilding [Some st] would always miss. *)
    if Atomic.compare_and_set state cur None then begin
      match st.mode with
      | Jsonl path ->
        let tracks =
          if Mutex.try_lock st.mu then begin
            let t = st.tracks in
            Mutex.unlock st.mu;
            t
          end
          else
            (* Registration lock contended: read the list racily. The
               field only ever grows by consing immutable track values,
               so a stale read misses the newest track at worst. *)
            st.tracks
        in
        let main, rest = List.partition (fun t -> t.tname = "main") tracks in
        let tracks =
          main @ List.sort (fun a b -> String.compare a.tname b.tname) rest
        in
        (try
           let oc = open_out_bin path in
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () ->
               List.iteri
                 (fun tid tr ->
                   if Mutex.try_lock tr.tmu then begin
                     let evs = List.of_seq (Queue.to_seq tr.buf) in
                     Mutex.unlock tr.tmu;
                     List.iter
                       (fun e ->
                         output_string oc (to_json_line ~tid e);
                         output_char oc '\n')
                       evs
                   end)
                 tracks)
         with Sys_error _ -> ())
      | Counters_only | Memory -> ()
    end
