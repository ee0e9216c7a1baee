(** Agreement instances: the service's unit of work and its wire forms.

    An instance is one complete Byzantine-agreement execution — a
    protocol family plus the parameters that close over everything the
    run depends on (n, f, advice quality, seed). {!execute} is a pure
    function of the spec: the dispatcher running it on any pool domain,
    a batch oracle recomputing it serially, and a resubmitted duplicate
    all produce the same {!metrics}, which is what lets the chaos bench
    assert served responses byte-identical to batch runs.

    Requests and responses travel as JSON payloads inside
    {!Frame}-encoded frames. Parsing distinguishes {e malformed} (not
    JSON / wrong shape — nothing to correlate a response to beyond a
    placeholder id) from {e invalid} (well-formed but outside the
    service envelope — rejected with the client's own id), so one bad
    frame degrades exactly one response. *)

type family =
  | Unauth  (** Alg 1 wrapper, unauthenticated stack (Thm 11) *)
  | Auth  (** Alg 1 wrapper, authenticated stack (Thm 12) *)
  | Es  (** early-stopping phase-king baseline *)
  | Pk  (** plain phase-king baseline *)

type spec = {
  id : int;  (** client correlation id, echoed in the response *)
  family : family;
  n : int;
  f : int;  (** actual faulty processes, [0 <= f <= t] *)
  m : int;  (** target misclassified processes (advice-quality knob) *)
  seed : int;  (** workload RNG seed *)
}

type metrics = { decided : int; rounds : int; msgs : int; agreement : bool }

type reject_reason =
  | Overload  (** admission queue full: shed, never buffered *)
  | Malformed of string  (** frame payload was not a valid request *)
  | Invalid of string  (** parsed, but outside the service envelope *)
  | Draining  (** service is shutting down; resubmit elsewhere *)

type response =
  | Done of { id : int; metrics : metrics }
  | Degraded of { id : int; attempts : int }
      (** the instance exhausted its supervised retry budget and was
          quarantined; the service stays up *)
  | Rejected of { id : int; reason : reject_reason }
      (** [id] is [-1] when the request was too malformed to carry one *)

val max_n : int
(** Largest accepted [n] (an instance is O(n^2)+ simulation work; the
    envelope is part of overload protection). *)

val t_of : family -> n:int -> int
(** The fault threshold the stack is instantiated with — [(n-1)/3]
    except [Auth]'s [9n/20 - 1]. *)

val family_name : family -> string

val key : spec -> string
(** Canonical identity for supervision, chaos schedules, and dedup:
    every parameter the result depends on, excluding the client id. *)

val parse : string -> (spec, [ `Malformed of string | `Invalid of int * string ]) result
(** Parse and validate one frame payload. *)

type admin = Stats  (** [{"admin":"stats"}]: introspection, not work *)

val parse_admin : string -> admin option
(** Recognise an admin frame. Checked before {!parse}: an admin frame
    is answered from server state (counters, health, GC, flight
    recorder) without touching admission or the journal. [None] means
    "not an admin frame" — the payload then takes the instance path. *)

val execute : ?on_round:(int -> unit) -> spec -> metrics
(** Run the instance to completion. Pure: same spec, same metrics, on
    any domain, at any [--jobs]. [on_round] runs once before each round
    of every family, with the round number; an exception it raises
    aborts the run. It defaults to [Supervisor.tick], so a supervised
    run observes its deadline between rounds while an unsupervised run
    is unaffected (tick is a no-op there). *)

val request_json : spec -> string
(** The canonical request payload for this spec — what a well-behaved
    client (the load generator, the docs example) puts in a frame. *)

val response_to_json : response -> string
(** Stable rendering: byte-identical responses for equal values. *)

val response_id : string -> int option
(** Correlation id of a response payload, if it parses. *)
