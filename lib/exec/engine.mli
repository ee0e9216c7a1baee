(** The execution engine: fan experiment cells out over a domain pool,
    short-circuit through the journal, reassemble tables in canonical
    order.

    Output on stdout is byte-identical whatever the pool size or
    journal state, because cells never print — every byte comes from the
    plans' [render] functions, called serially in plan order after all
    cells have finished.

    With a [supervisor], cell failures no longer abort the sweep: each
    failing attempt is retried per the supervisor's budget and cells
    that exhaust it are quarantined — omitted from their plan's render
    input and listed in [stats.quarantined], leaving the sweep complete
    but DEGRADED. With a [journal], every finished cell is flushed to a
    write-ahead log as it completes, and every cell the journal already
    holds is replayed instead of run: a re-run of the same build
    recomputes nothing, and a killed sweep resumes where it stopped. *)

type stats = {
  total_cells : int;
  journal_hits : int;  (** Cells replayed from the journal. *)
  executed : int;  (** Cells actually run this time. *)
  retried : int;  (** Failed attempts that were retried (and so re-run). *)
  quarantined : (string * string) list;
      (** [(exp_id, cell key)] of cells that exhausted their retry
          budget, in plan order. Empty = clean run. *)
  ledgers : (string * Supervisor.attempt_record list) list;
      (** Per-cell failure ledgers ({!Plan.cell_id} keyed), for every
          cell that failed at least one attempt. Deterministic for a
          fixed supervisor seed. *)
  jobs : int;  (** Pool parallelism used (1 when no pool given). *)
  wall : float;  (** Seconds spent computing (excludes rendering). *)
}

val degraded : stats -> bool
(** [quarantined <> []] — the sweep completed but lost cells. *)

val run :
  ?pool:Pool.t ->
  ?journal:Journal.t ->
  ?supervisor:Supervisor.t ->
  ?render:bool ->
  Plan.t list ->
  stats
(** Run every plan's cells — journal replay first, then the pool for
    the rest (inline when [pool] is absent) — journaling each fresh
    result as it completes, then render each plan in order.
    [render:false] skips the rendering pass — for timing sweeps without
    producing output.

    Without [supervisor], a raising cell re-raises after the whole batch
    has settled (everything finished is already journaled) and nothing
    is rendered. With one, failures are retried/quarantined and the run
    always renders — partially, if cells were lost. *)

val stats_json : stats -> string
(** The same report as {!pp_stats} in machine-readable JSON (version 1):
    scalar fields plus the quarantined list and per-cell failure
    ledgers. Consumed by [bap_gate --check-stats]. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line report, e.g.
    ["26 cells: 6 ran on 8 workers in 1.24s, 20 from journal,
      2 failed attempt(s) retried, DEGRADED: 1 cell(s) quarantined"] —
    the optional segments appear only when nonzero. *)
