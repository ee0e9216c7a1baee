(** Crash-safe write-ahead journal for sweeps.

    The journal is the one store of cell results. Each completed cell is
    appended as one digest-framed record and flushed before the sweep
    moves on: after {!append} returns, a SIGKILL cannot lose that cell.
    Resuming ([open_ ~resume:true]) replays the longest valid prefix,
    truncates any torn tail, and leaves the engine to re-run only the
    missing cells — so a re-run of the same build recomputes nothing, a
    killed sweep continues where it stopped, and output is
    byte-identical to an uninterrupted run at any [--jobs] level because
    render order comes from the plan, not completion order.

    Records are keyed by {!Cache.cell_address} under the journal's
    fingerprint; a journal written by a different build fails the header
    check and is discarded wholesale, so a rebuild recomputes every cell.
    Framing, torn-tail truncation and flushing live in the shared
    {!Wal} core. Opening is best-effort: an unwritable path degrades to
    "no journaling" rather than failing the sweep — loudly, via the
    WAL's stderr warning and [wal_degraded] telemetry instant. *)

type t

val default_path : string
(** ["results/sweep.journal"]. *)

val open_ : ?resume:bool -> path:string -> fingerprint:string -> unit -> t
(** [resume:false] (default) truncates any existing journal and writes a
    fresh header. [resume:true] loads the valid prefix of an existing
    journal (stale-fingerprint journals load zero entries) and appends
    after it. *)

val address : t -> exp_id:string -> scope:string -> cell_key:string -> string
(** A cell's record key — {!Cache.cell_address} under this journal's
    fingerprint. *)

val find : t -> string -> Cache.rows option
(** Rows recorded for an address, if any (loaded at open or appended
    since). *)

val append : t -> string -> Cache.rows -> unit
(** Record a completed cell and flush. Duplicate addresses are ignored.
    Thread-safe. *)

val entries : t -> int
(** Number of distinct cells recorded. *)

val path : t -> string

val close : t -> unit
(** Flush and release the file handle. Idempotent. *)

val signal_close : t -> unit
(** Signal-handler-safe {!close}: acquires the journal lock with a
    non-blocking attempt, so a handler that interrupted {!append}
    mid-record cannot self-deadlock on the lock it already holds. If
    the lock is contended, nothing is done — every appended record is
    already flushed, so nothing recorded is lost. *)
