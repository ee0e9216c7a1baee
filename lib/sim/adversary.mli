(** Byzantine adversary interface for the lock-step runtime.

    The runtime spawns the honest protocol code for *every* process,
    including the faulty ones; faulty copies are "puppets". Each round the
    adversary may

    - rewrite the outbox of every puppet ({!handlers.filter}), and
    - inject arbitrary extra messages from faulty senders
      ({!handlers.inject}).

    The adversary is {e rushing}: both hooks observe the messages the
    honest processes send in the current round before the adversary's own
    messages are fixed. Dropping everything a puppet says and relying on
    [inject] alone gives a fully custom Byzantine strategy; the identity
    filter with no injection gives faulty processes that follow the
    protocol. *)

type 'msg send = { src : int; dst : int; payload : 'msg }
(** One adversary-chosen message. [src] must be a faulty process. *)

type 'msg view = {
  round : int;  (** Current round, starting at 1. *)
  n : int;
  faulty : int array;  (** Identifiers of the faulty processes. *)
  honest_out : sender:int -> recipient:int -> 'msg list;
      (** Messages each honest process sends this round (rushing). *)
}

type 'msg handlers = {
  filter : 'msg view -> src:int -> (int -> 'msg list) -> int -> 'msg list;
      (** [filter view ~src outbox] rewrites puppet [src]'s outbox; the
          result is queried once per recipient. *)
  inject : 'msg view -> 'msg send list;
      (** Extra messages from faulty senders, delivered this round. *)
  filter_in : 'msg view -> dst:int -> src:int -> 'msg list -> 'msg list;
      (** Rewrites what puppet [dst] receives from [src] (faulty
          processes may pretend not to have received messages, as in the
          Dolev-Reischuk lower-bound construction). Honest processes'
          inboxes are never filtered. *)
}

val identity_filter : 'msg view -> src:int -> (int -> 'msg list) -> int -> 'msg list
(** Keeps the puppet outbox unchanged. *)

val mute_filter : 'msg view -> src:int -> (int -> 'msg list) -> int -> 'msg list
(** Drops everything a puppet says. *)

val no_inject : 'msg view -> 'msg send list
val identity_in : 'msg view -> dst:int -> src:int -> 'msg list -> 'msg list

val handlers :
  ?filter:('msg view -> src:int -> (int -> 'msg list) -> int -> 'msg list) ->
  ?inject:('msg view -> 'msg send list) ->
  ?filter_in:('msg view -> dst:int -> src:int -> 'msg list -> 'msg list) ->
  unit ->
  'msg handlers
(** Handlers with identity/empty defaults. Pass the exported combinators
    above (they are the defaults) rather than re-implementing them: the
    runtime's counted fast path recognises them {e physically} and skips
    the per-pair calls they would make — any observably equivalent
    closure stays correct but runs on the per-pair path. *)

type 'msg t = {
  name : string;
  make : n:int -> faulty:int array -> 'msg handlers;
      (** Fresh per-execution handler state. *)
}

val passive : 'msg t
(** Faulty processes follow the protocol exactly (crash-free run). *)

val silent : 'msg t
(** Faulty processes never send anything (crash at time 0). *)

val silent_after : int -> 'msg t
(** Follow the protocol through the given round, then go silent: a crash
    failure at a chosen time. *)

val drop_to : (int -> bool) -> 'msg t
(** Follow the protocol but omit all messages to recipients selected by
    the predicate (receive-omission as seen by the targets). *)

val rewrite : string -> ('msg view -> src:int -> dst:int -> 'msg -> 'msg list) -> 'msg t
(** [rewrite name f] applies [f] to every puppet message; [f] may drop
    (return []), keep, modify or multiply a message. *)

val compose : 'msg t list -> 'msg t
(** [compose advs] chains the adversaries left to right: each [filter]
    (and [filter_in]) sees the previous one's output as its input, and
    the [inject] lists are concatenated in order. [compose \[\]] is
    {!passive}. Because a later filter re-reads the earlier ones'
    outboxes, the per-recipient "called exactly once" guarantee of the
    runtime holds only for the whole composition; individual stages must
    therefore be effect-free (every combinator in this library and in
    [Bap_chaos] is). *)

val custom : string -> (n:int -> faulty:int array -> 'msg view -> 'msg send list) -> 'msg t
(** Fully scripted adversary: puppets are muted and every faulty message
    comes from the supplied function. *)
