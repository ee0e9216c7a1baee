(** Byzantine adversary interface for the lock-step runtime.

    The runtime spawns the honest protocol code for {e every} process,
    including the faulty ones; faulty copies are "puppets". Each round
    the adversary takes one step per faulty process: it maps that
    puppet's outbox to the outbox the runtime delivers. It may keep,
    rewrite, drop or replace every message, so passing the puppet's
    outbox through gives faulty processes that follow the protocol, and
    ignoring it gives a fully scripted Byzantine strategy.

    The adversary is {e rushing}: each step sees the messages the honest
    processes send in the current round ({!view}) before the faulty
    processes' messages are fixed. A faulty process can only send as
    itself. *)

type 'msg outbox = Broadcast of 'msg list | Pairs of (int * 'msg) list
(** One process's messages for one round, in the two shapes a protocol
    sends: the same list to every process (itself included), or unicast
    [(recipient, msg)] pairs, which a recipient gets in list order. A
    faulty [Pairs] entry naming no process (a recipient outside [0, n))
    is an error. *)

type 'msg view = {
  round : int;  (** Current round, starting at 1. *)
  n : int;
  faulty : int array;  (** Identifiers of the faulty processes. *)
  honest_out : sender:int -> recipient:int -> 'msg list;
      (** Messages each honest process sends this round (rushing). *)
}

type 'msg t = {
  name : string;
  make : n:int -> faulty:int array -> 'msg view -> src:int -> 'msg outbox -> 'msg outbox;
      (** [make ~n ~faulty] runs once per execution and holds the run's
          state. The runtime applies its result to each round's view
          once, then applies the function that returns to every faulty
          process in ascending order, with that puppet's outbox
          ([Broadcast []] once the puppet has returned). Work that does
          not depend on the sender belongs before [~src]. *)
}

val mute : 'msg outbox
(** [Broadcast []]: nothing to anybody. *)

val concat_map : ('msg -> 'msg list) -> 'msg outbox -> 'msg outbox
(** Rewrite every message, keeping the outbox's shape: a broadcast stays
    one list, which the counted engine keeps on the shared inbox. *)

val per_recipient : n:int -> (dst:int -> 'msg -> 'msg list) -> 'msg outbox -> 'msg outbox
(** Rewrite every message for its recipient. A broadcast becomes pairs
    to [0 .. n-1], in that order. *)

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
(** [rewrite name f] applies [f] to every puppet message, per recipient;
    [f] may drop (return []), keep, modify or multiply a message. *)

val compose : 'msg t list -> 'msg t
(** [compose advs] chains the adversaries left to right: each outbox is
    folded through every stage in order. [compose \[\]] is {!passive}. *)
