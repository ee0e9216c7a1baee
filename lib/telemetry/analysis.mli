(** Offline analysis of JSONL traces (the engine behind [bap_trace]).

    [summary], [diff] and [alloc_report] are deterministic renderings of
    one attribution pass over the logical event stream; [critpath] is
    the only reader of [wall_us]. *)

type rollup = { spans : int; rounds : int; msgs : int; bits : int; words : int }

type attribution = {
  events : int;
  tracks : int;
  runs : int;  (** completed [sim.run] spans *)
  total_rounds : int;
  total_msgs : int;
  total_bits : int;
  adversary_msgs : int;
  phases : (string * rollup) list;
      (** per sub-protocol phase, sorted by name; each simulated round's
          messages, bits and minor words are attributed to the innermost
          core span whose round extent contains it, or to ["other"]. *)
  scopes : (string * rollup) list;
      (** allocation outside the rounds, sorted by name: a run's words
          outside its rounds stay with ["sim.run"], a cell's outside its
          runs with ["cell"], the sweep's remainder with ["harness"] *)
  total_words : int;  (** every measured word, once: phases + scopes *)
  process_words : int option;
      (** the process-wide total, when the trace carries an
          [alloc.process] instant (written by [bap_tables --alloc-out]) *)
  samples : (string * string * int) list;
      (** [(site, phase, samples)] from the Memprof profiler, descending *)
}

val load : string -> Telemetry.event list
(** Parse a JSONL trace file. Raises [Failure] with [file:line: reason]
    on a malformed line. *)

val strip_wall : string -> string
(** Remove every [wall_us] field from JSONL text — the canonical
    preparation before comparing two traces for logical equality. *)

val attribute : Telemetry.event list -> attribution
(** The one attribution pass behind {!summary}, {!diff} and
    {!alloc_report}. Words come from the [minor_words] attributes the
    allocation probe adds to End events; a trace recorded with the probe
    off attributes zero words. *)

val summary : Telemetry.event list -> string
(** Human-readable rollup: headline rounds/messages/bits plus a
    per-phase table. *)

val diff : Telemetry.event list -> Telemetry.event list -> string
(** Regression-style delta table between two traces (headline metrics
    and per-phase rounds/msgs). *)

val critpath : ?top:int -> Telemetry.event list -> string
(** The [top] (default 15) slowest cells by wall time, with ASCII
    timing bars. Requires a trace recorded with wall-clock enabled. *)

val alloc_rows : attribution -> (string * rollup) list
(** Phases and scopes in one list, sorted by words descending: the rows
    of {!alloc_report}, which partition [total_words]. *)

val alloc_report : ?top:int -> Telemetry.event list -> string
(** Human-readable allocation table (exact word counts, words/round,
    share, ASCII bars) plus the [top] (default 15) sampled allocation
    sites when the trace carries any. *)

val parse_alloc_report : string -> (string * int) list
(** Recover [(phase, minor_words)] rows from {!alloc_report} output —
    the round-trip the CLI's tests pin down. *)
