(** Reusable write-ahead log core.

    The digest-framed record / torn-tail machinery behind both the
    sweep journal ({!Journal}) and the serve-layer instance journal
    ({!Bap_servelib.Journal}). A log is a header line
    [<magic> <fingerprint>] followed by framed records
    [rec <tag> <key> <len> <md5hex>] + payload; the digest makes any
    torn or damaged record — and everything after it — detectable, and
    the fingerprint makes a log written by a different build invalid
    wholesale.

    One flush per record is the crash-safety contract: after {!append}
    returns, a SIGKILL cannot lose that record. Flushed is not fsynced:
    power loss or a kernel crash can still lose it. Opening is
    best-effort —
    an unwritable path degrades to "no logging" rather than failing the
    caller — but degradation is loud: a stderr warning and a telemetry
    instant ([wal_degraded], counter [wal.degraded]) fire so the
    operator can tell durability is off. *)

type record = { tag : string; key : string; payload : string }

type t

val open_ :
  ?resume:bool -> magic:string -> path:string -> fingerprint:string -> unit -> t
(** [resume:false] (default) truncates any existing log and writes a
    fresh header. [resume:true] loads the valid prefix of an existing
    log into {!records} (stale-fingerprint logs load zero records),
    truncates any torn tail — rewriting the valid prefix wholesale if
    truncation itself fails — and appends after it. *)

val records : t -> record list
(** The valid prefix loaded at open, in file order. Empty unless
    [resume:true] found a same-fingerprint log. *)

val append : t -> tag:string -> key:string -> string -> unit
(** Frame, write, and flush one record. [tag] and [key] must be
    non-empty and contain no spaces or newlines ([Invalid_argument]
    otherwise); the payload is arbitrary bytes. Thread-safe. No
    dedup — callers own their idempotence policy. *)

val active : t -> bool
(** [false] once the log has degraded to "no logging" (unwritable path
    at open, or a write error since). *)

val appends : t -> int
(** Records successfully appended (and flushed) since open. *)

val path : t -> string

val close : t -> unit
(** Flush and release the file handle. Idempotent. *)

val signal_close : t -> unit
(** Signal-handler-safe {!close}: acquires the lock with a non-blocking
    attempt, so a handler that interrupted {!append} mid-record cannot
    self-deadlock. If the lock is contended, nothing is done — every
    appended record is already flushed, so nothing recorded is lost. *)
