(** Supervised cell execution: watchdog deadlines, typed failures,
    bounded deterministic retry, quarantine.

    The supervisor sits between {!Engine} and the raw cell thunks. Each
    attempt runs under an optional cooperative deadline; raises and
    timeouts become typed {!failure_kind}s instead of escaping into the
    pool; failures are retried up to [config.retries] extra times with a
    deterministic seeded backoff ledger; cells that exhaust the budget
    come back as {!Quarantined} so the sweep can finish DEGRADED with
    partial tables instead of aborting.

    Cancellation is cooperative: OCaml domains cannot be killed, so the
    watchdog sets a flag that the running cell observes at {!tick}. A
    cell that never calls [tick] is not interruptible; the deadline then
    bounds only cooperative and injected work. Retry never sleeps — the
    backoff values are recorded in the ledger (what a distributed
    backend would wait), keeping sweeps fast and byte-reproducible. *)

(** Faults a chaos harness can inject into an attempt. *)
type injected = Inject_crash | Inject_hang

type failure_kind =
  | Crashed of string  (** the attempt raised; [Printexc.to_string] of it *)
  | Timed_out of float  (** the watchdog deadline (seconds) expired *)

type attempt_record = { attempt : int; kind : failure_kind; backoff_ms : int }

type 'a outcome =
  | Completed of { value : 'a; attempts : int; ledger : attempt_record list }
  | Quarantined of { ledger : attempt_record list }

type config = {
  retries : int;  (** extra attempts after the first; 2 → at most 3 runs *)
  timeout_s : float option;  (** per-attempt deadline; [None] = no watchdog *)
  seed : int;  (** seeds the backoff jitter (and nothing else) *)
  inject : (key:string -> attempt:int -> injected option) option;
      (** chaos hook, consulted before each attempt *)
}

val default_config : config
(** [{ retries = 2; timeout_s = None; seed = 0; inject = None }] *)

type t

val start : config -> t
(** Spawns the watchdog domain iff [timeout_s] is set. *)

val stop : t -> unit
(** Joins the watchdog domain. Idempotent. *)

val with_supervisor : config -> (t -> 'a) -> 'a
(** [start]/[stop] bracket, exception-safe. *)

val supervise : t -> key:string -> (unit -> 'a) -> 'a outcome
(** Run one cell under supervision. Never raises from the cell body:
    every raise or timeout is folded into the returned outcome. [key]
    identifies the cell in chaos schedules and backoff derivation. *)

val tick : unit -> unit
(** Cooperative cancellation point: raises the internal timeout
    exception iff the current attempt has exceeded its deadline. Safe
    (and a no-op) outside supervised code. *)

val backoff_ms : seed:int -> key:string -> attempt:int -> int
(** Deterministic backoff for a failed attempt: exponential base
    [25 * 2^min(attempt,6)] ms plus seeded jitter in [0, base). Pure. *)

val pp_ledger : Format.formatter -> attempt_record list -> unit

val install_exit_handlers :
  ?on_signal:(signal_name:string -> unit) -> unit -> unit
(** Install SIGINT/SIGTERM handlers that run [on_signal] (flush the
    journal, print the resume command, ...), flush any installed
    telemetry sink via the signal-safe [Telemetry.signal_shutdown],
    and exit 130/143 — the 128+signo shell convention — instead of
    dying mid-write with a stack trace, a bogus zero, or an empty
    trace file. *)
