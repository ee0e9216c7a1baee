(** Structured spans, metrics, and trace sinks.

    The instrumentation layer for the whole stack: the simulator emits
    round spans, lib/core sub-protocols emit phase spans, and the
    execution engine emits cell lifecycle spans. Everything is keyed on
    {e logical} timestamps (per-track sequence numbers); wall-clock time
    is an opt-in extra field so traces stay deterministic by default.

    Nothing here touches stdout: sinks write to memory or to a file, so
    enabling telemetry never perturbs the byte-identical table output.

    When no sink is installed every entry point is a single atomic load
    plus a branch, and attribute thunks are never evaluated. *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Attribute values. Keep attributes logical (round numbers, message
    counts, outcomes) — never wall time or worker identity, which would
    break cross-[--jobs] trace equality. *)

type phase = Begin | End | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  seq : int;  (** logical timestamp: position within the track *)
  track : string;
  attrs : (string * value) list;
  wall_us : float option;  (** only with [install ~wall:true] *)
}

type mode =
  | Counters_only  (** metrics registry live, no events recorded *)
  | Memory  (** events kept in memory; read back with {!events} *)
  | Jsonl of string  (** events flushed to this path at {!shutdown} *)

val install : ?wall:bool -> ?limit:int -> mode -> unit
(** Install a sink process-wide. [wall] (default false) stamps each
    event with microseconds since install. [limit] (default 5M) caps
    the number of recorded events; the overflow is counted in
    {!dropped} and noted in the JSONL flush, and determinism is only
    guaranteed for runs that stay under the cap. Reinstalling replaces
    the previous sink; its unread events are discarded. *)

val shutdown : unit -> unit
(** Uninstall. A [Jsonl] sink writes its file here (canonical track
    order: "main" first, the rest sorted by name). No-op when nothing
    is installed. *)

val signal_shutdown : unit -> unit
(** The signal-safe twin of {!shutdown}, for SIGINT/SIGTERM exit paths
    (the journal's [signal_close] idiom): every lock is a [try_lock],
    so a handler that interrupted a domain mid-emit skips that track
    instead of self-deadlocking. A [Jsonl] sink still gets a valid
    file containing every uncontended track. Races safely with
    {!shutdown} — exactly one of them flushes. *)

val span :
  ?cat:string ->
  ?attrs:(unit -> (string * value) list) ->
  ?end_attrs:(unit -> (string * value) list) ->
  ?fold:bool ->
  name:string ->
  (unit -> 'a) ->
  'a
(** [span ~name f] brackets [f] with Begin/End events on the current
    track — the one instrumentation primitive for time and allocation.
    [attrs] is evaluated at entry, [end_attrs] after [f] returns; both
    are thunks so a disabled sink costs nothing. If [f] raises, the End
    event carries an ["error"] attribute and the exception is
    re-raised. Safe around effect-performing code: the fiber may
    suspend and resume inside the span.

    With the allocation probe on ({!Memprobe.enable}) and any sink
    installed, the span also records allocation:
    - the End event gains the domain-local [minor_words] delta of [f]
      as its last attribute (probe-off events keep their exact bytes);
    - when [fold] (default [true]), the span is a self-time frame: its
      GC deltas fold into the metrics registry under [name], minus its
      nested frames' — counters [alloc.spans/name],
      [alloc.minor_words/name] (domain-local, exact),
      [alloc.promoted_words/name], [alloc.major_words/name],
      [alloc.minor_collections/name], [alloc.major_collections/name]
      (process-global, exact at [--jobs 1]) and histogram
      [alloc.span_minor_words/name] of each span's inclusive total —
      and it labels the Memprof sampler's allocations.

    Pass [~fold:false] for a span that frames opened inside it outlive:
    the scheduler's [round], inside which process 0's fiber opens
    protocol spans that stay open across round boundaries. *)

val set_alloc_probe : bool -> unit
(** The probe's switch, read by {!span}. Call {!Memprobe.enable} and
    {!Memprobe.disable}, which also keep the process baseline. *)

val innermost_frame : unit -> string option
(** The innermost open allocation frame on the calling domain, if any:
    the sampler's attribution key. *)

val instant :
  ?cat:string ->
  ?attrs:(unit -> (string * value) list) ->
  name:string ->
  unit ->
  unit
(** A single point event on the current track. *)

val with_track : string -> (unit -> 'a) -> 'a
(** [with_track name f] routes events emitted by [f] {e on this domain}
    to track [name] (created on first use). Tracks are owned by one
    domain at a time — the engine gives each executing cell its own
    track named by the cell id, which is what keeps per-track event
    order schedule-independent. *)

val events : unit -> event list
(** Snapshot of recorded events in canonical order ("main" track first,
    then tracks sorted by name; per-track program order). [[]] when no
    sink is installed or in [Counters_only] mode. Read before
    {!shutdown}. *)

val dropped : unit -> int
(** Events discarded because the [limit] was hit. *)

val to_json_line : tid:int -> event -> string
(** One Chrome trace-event-compatible JSON object (no newline). [tid]
    is the canonical track index. [wall_us], when present, is always
    the last field. *)

(** Named counters / gauges / histograms, sharded per domain and merged
    exactly on read — the fold is associative and commutative, so the
    snapshot does not depend on the work-stealing schedule. *)
module Metrics : sig
  type hist = { count : int; total : int; min_v : int; max_v : int }

  type snap = {
    counters : (string * int) list;  (** sorted by name *)
    gauges : (string * int) list;  (** sorted by name; merged with max *)
    hists : (string * hist) list;  (** sorted by name *)
  }

  val counter : string -> int -> unit
  (** Add to a named counter (no-op when telemetry is off). *)

  val gauge_max : string -> int -> unit
  (** Raise a named high-water mark. *)

  val observe : string -> int -> unit
  (** Record one observation into a named histogram. *)

  val merge_hist : hist -> hist -> hist
  (** Exact merge: [merge_hist a b] summarises the concatenation of the
      streams summarised by [a] and [b]. Associative, commutative, with
      the empty histogram as identity. *)

  val snapshot : unit -> snap
  (** Merge all per-domain shards. Call after parallel work quiesces. *)

  val to_json : snap -> string
  (** Stable JSON rendering (keys sorted). *)
end
