(** Allocation observatory: the probe switch, process GC snapshots and
    an optional sampling profiler.

    The probe is off by default. Per-span attribution is
    {!Telemetry.span}'s job: with the probe on, each span stamps its
    domain-local [minor_words] delta on its End event and folds its GC
    deltas into the {!Telemetry.Metrics} registry as a self-time frame.
    With it off, instrumented code emits nothing extra, so results and
    traces stay byte-identical.

    All [Gc] reads in the repo are confined to lib/telemetry (lint rule
    D002, the same allowlist that pins the wall clock to the timing
    shims). Code outside lib/telemetry reads allocation through this
    interface only. *)

type snapshot = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
}
(** A process-global GC snapshot ([Gc.quick_stat]-backed: cheap, no
    heap walk). Word counters are cumulative since process start;
    [heap_words] and [compactions] are current levels. *)

val snapshot : unit -> snapshot
(** Read the process-global counters. Safe from any domain; other
    domains' allocation is included, so use {!domain_minor_words} for
    per-span attribution instead. *)

val delta : before:snapshot -> after:snapshot -> snapshot
(** Pointwise difference of the cumulative fields; [heap_words] and
    [compactions] keep the [after] levels (a delta still answers
    "where is the heap now"). *)

val enable : unit -> unit
(** Turn the probe on and record the process baseline for
    {!process_delta}. Idempotent (re-enabling resets the baseline). The
    probe records through the installed telemetry sink; with none
    installed, spans record nothing. *)

val disable : unit -> unit
(** Turn the probe off. Accumulated metrics and samples survive. *)

val process_delta : unit -> snapshot
(** Process-global GC activity since {!enable} (absolute counters if
    the probe was never enabled). The denominator for attribution
    coverage: per-span minor words should account for ~all of it. *)

val domain_minor_words : unit -> float
(** Words allocated on the minor heap {e by the calling domain}
    ([Gc.minor_words]). Domain-local, hence deterministic regardless of
    [--jobs]; the same counter {!Telemetry.span} reads for its
    [minor_words] attribute. *)

val start_sampling : ?rate:float -> unit -> bool
(** Start the [Gc.Memprof] sampling profiler at [rate] samples per word
    (default [1e-4]). Returns [false] when the runtime refuses memprof
    (OCaml 5.1 multicore does; 5.2 restored it) — the reason is kept in
    {!sampling_failure} and everything else still works. *)

val stop_sampling : unit -> unit
(** Stop the profiler if it is running. Samples survive. *)

val sampling_failure : unit -> string option
(** Why the last {!start_sampling} returned [false], if it did. *)

val samples : unit -> (string * string * int) list
(** Merged [(phase, allocation site, sample count)] triples from every
    domain, sorted. A site is ["file.ml:line"], or ["<unknown>"] when
    the backtrace carries no location. *)

val flush_to_trace : unit -> unit
(** Make the trace self-contained for [bap_trace alloc]: emit {!samples}
    as sorted [alloc.sample] instants (cat ["alloc"]) and one
    [alloc.process] instant carrying {!process_delta}, on the caller's
    current track. Run after the work quiesces (so every domain's
    counters are published) and before [Telemetry.shutdown]. *)
