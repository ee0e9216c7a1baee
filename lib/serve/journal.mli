(** The instance journal: durability for the always-on service.

    Rides the shared {!Bap_exec.Wal} core. Every admitted instance is
    logged at {e accept} (payload: the request JSON) and again at
    {e respond} (payload: the response bytes, verbatim), keyed by
    {!Instance.key} — the client-id-free canonical identity — and
    flushed before the response frame is written. Flushed is not
    fsynced: power loss or a kernel crash can still lose answered
    instances. Across a SIGKILL and a [--resume] restart that yields:

    - accept without respond: the server died owning the instance; it
      is in {!recovered} and must be re-dispatched. The client never
      received a response (the respond record is flushed first), so it
      will retransmit and collect the recovered answer.
    - respond present: the answer bytes are durable; {!accept} on a
      retransmit of that key returns [`Replay bytes] and the server
      resends the exact journaled bytes.

    Each accepted instance is therefore {e answered exactly once}
    across incarnations — recomputed never, replayed verbatim on
    retransmit. All calls belong to the serve loop's domain; only
    {!signal_close} is safe from a signal handler. *)

type state =
  | Pending of Instance.spec  (** accepted, not yet answered *)
  | Answered of string  (** the journaled response bytes *)

type t

val default_path : string
(** ["results/serve.journal"]. *)

val open_ : ?resume:bool -> path:string -> unit -> t
(** Fingerprinted by {!Bap_exec.Cache.code_fingerprint}, so a journal
    from a different build loads zero records. [resume:true] replays
    the valid prefix (truncating any torn tail) and exposes
    accepted-unanswered instances via {!recovered}. Best-effort like
    the sweep journal: an unwritable path degrades to "no durability"
    with the WAL's loud warning; {!active} reports which. *)

val accept : t -> Instance.spec -> [ `Logged | `Duplicate | `Replay of string ]
(** Journal an admitted instance. [`Logged]: fresh key, the accept
    record is flushed — enqueue it. [`Duplicate]: the key is already
    pending (an earlier accept owns it) — do not enqueue again.
    [`Replay bytes]: the key was already answered — resend [bytes],
    do not re-execute. *)

val respond : t -> key:string -> string -> unit
(** Journal the response bytes for [key] and flush. Must be called
    {e before} the response frame is written: a crash between the two
    leaves the answer durable and the client retransmitting, which
    replays it. Idempotent per key (first answer wins). *)

val lookup : t -> string -> state option

val recovered : t -> (string * Instance.spec) list
(** Accepted-unanswered instances loaded at open, in journal (accept)
    order. Empty unless [resume:true]. *)

val accepted : t -> int
(** Distinct keys ever accepted, including those loaded at open. *)

val answered : t -> int
(** Distinct keys answered, including those loaded at open. *)

val active : t -> bool
(** [false] when journaling degraded to "no durability". *)

val path : t -> string
val close : t -> unit

val signal_close : t -> unit
(** Signal-handler-safe close; see {!Bap_exec.Wal.signal_close}. *)
