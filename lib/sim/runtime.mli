(** Lock-step synchronous round runtime.

    The runtime executes one protocol function per process in
    round-lock-step, exactly matching the synchronous model of the paper:
    in each round every process sends messages, the (rushing) adversary
    fixes the faulty processes' messages after seeing the honest ones, in
    one step per round ({!Adversary.t}), and then every process receives
    the round's messages and computes.

    Protocol code is written in direct style: it ends each round with
    one send — a broadcast ({!S.broadcast_list}, {!S.broadcast},
    {!S.silent_round}) or a unicast ({!S.send_to}) — which returns the
    round's {!Inbox}, and otherwise is ordinary OCaml. Suspension is
    implemented with OCaml 5 effect handlers, so sub-protocols compose
    by plain function calls — Algorithm 1 of the paper is literally a
    [for] loop over function calls.

    Two delivery engines implement the same semantics:

    - the {e concrete} per-pair path routes every message individually
      through an arena-backed n x n matrix; it is the reference
      semantics and the only path when a trace or network hook observes
      individual edges;
    - the {e counted} path aggregates identical honest broadcasts into
      (payload, sender-bitset) groups and never materialises the n
      copies. It treats faulty traffic as it treats honest traffic: a
      broadcast is one list, and only unicast pairs ({!S.send_to}, or a
      faulty {!Adversary.Pairs} outbox) fall back to per-recipient
      rows. When a round has none, every recipient gets one
      {!Inbox.shared} inbox, on which a derivation every recipient reads
      the same way runs once ({!Inbox.memo}).

    The two paths are byte-identical in every observable: decisions,
    rounds, all message/bit accounting, adversary call order, and raised
    exceptions (asserted by differential tests at small n). *)

module type MSG = sig
  type t
end

(** How the counted engine recognises identical honest broadcasts: a
    per-message [key] ([None] for a message that must not be grouped,
    e.g. a signed one), with a [hash] and an [equal] on keys. Two
    broadcast lists fall into one group when every message has a key
    and their key lists are equal. [equal] must imply equal hashes, and
    equal keys must mean messages every reader treats alike. *)
type 'm grouping =
  | Grouping : {
      key : 'm -> 'k option;
      hash : 'k -> int;
      equal : 'k -> 'k -> bool;
    }
      -> 'm grouping

module type S = sig
  type msg

  type ctx
  (** Per-process handle: identity plus the current round. *)

  val id : ctx -> int
  val n : ctx -> int

  val round : ctx -> int
  (** Rounds start at 1; 0 before the first round's send. *)

  (** {2 Rounds}

      Each of the next four calls ends the caller's local computation
      for the current round and returns the round's inbox: what each
      sender delivered to the caller. Messages to self are delivered but
      never counted in the message-complexity metrics. *)

  val broadcast_list : ctx -> msg list -> msg Inbox.t
  (** Send the same message list to everybody (including self). The
      counted engine's native shape: identical honest broadcasts
      collapse into one (payload, sender-set) group. *)

  val broadcast : ctx -> msg -> msg Inbox.t
  (** Send one message to everybody (including self). *)

  val send_to : ctx -> (int * msg) list -> msg Inbox.t
  (** Unicast: send each [(recipient, msg)] pair. A recipient gets its
      pairs in send order; an honest pair naming no process (a recipient
      outside [0, n)) delivers nothing and is not counted (a faulty
      process's is an error, see {!run}). Either engine lays
      the pairs out as one per-recipient row, in O(n + pairs); use
      {!broadcast_list} when every recipient gets the same messages, so
      the counted engine can aggregate. *)

  val silent_round : ctx -> msg Inbox.t
  (** Send nothing, still receive. *)

  val skip : ctx -> int -> unit
  (** [skip ctx r] spends [r] silent rounds, discarding the inboxes. Used
      to pad sub-protocols to a fixed duration. *)

  type 'r outcome = {
    n : int;
    faulty : int array;
    decisions : 'r option array;
        (** Return value of each process's protocol function. Faulty slots
            are the *puppet* results (the protocol code the adversary was
            rewriting) and carry no correctness meaning. *)
    decision_round : int array;  (** Round of return, [-1] if never. *)
    rounds : int;  (** Last round executed (= last honest return). *)
    honest_sent : int;
        (** Messages sent by honest processes to other processes (self
            deliveries excluded), i.e. the paper's message complexity. *)
    honest_per_round : int array;
    honest_received : int array;
        (** [honest_received.(j)] counts the messages process [j] received
            from honest senders (self-deliveries excluded); used by the
            Dolev-Reischuk message-lower-bound audit. *)
    honest_bits : int;
        (** Communication complexity: total size (in bits, as reported by
            [run]'s [msg_size]) of the honest messages; 0 when no
            [msg_size] was supplied. *)
    adversary_sent : int;
  }

  exception Round_limit_exceeded of int

  val run :
    ?max_rounds:int ->
    ?trace:msg Trace.t ->
    ?msg_size:(msg -> int) ->
    ?network:(round:int -> src:int -> dst:int -> msg list -> msg list) ->
    ?group_key:(msg -> string option) ->
    ?grouping:msg grouping ->
    ?on_round:(int -> unit) ->
    ?mode:[ `Auto | `Concrete ] ->
    n:int ->
    faulty:int array ->
    adversary:msg Adversary.t ->
    (ctx -> 'r) ->
    'r outcome
  (** Execute one synchronous run. Every process (honest and faulty) runs
      the given function; faulty copies are puppets whose messages the
      adversary rewrites or replaces (see {!Adversary}). The run ends when
      every honest process has returned.

      [network] is the fault-injection hook of the chaos layer: after the
      adversary has fixed the round's traffic, [network ~round ~src ~dst
      msgs] rewrites the messages in flight on every directed edge
      (including self-delivery edges — leave those untouched to stay
      within the synchronous model). It runs before metric accounting and
      trace recording, so both reflect what was actually delivered.
      Perturbing honest-to-honest edges beyond reordering or duplication
      steps outside the paper's reliable-channel model; the chaos layer's
      schedule generator keeps inside it, but the hook itself is
      deliberately unrestricted so tests can probe the envelope.

      [grouping] enables broadcast aggregation on the counted path (see
      {!grouping}); messages without a key travel as per-sender
      entries. [group_key] is the grouping whose keys are an {e
      injective} string encoding, hashed with [String.hash] and compared
      with [String.equal]; give at most one of the two.
      Omitting both still avoids the n x n matrices but aggregates
      nothing. The grouping functions run once per honest sender on the
      counted path; [msg_size] runs once per distinct payload there and
      once per delivered message on the concrete path. All of them must
      be pure.

      [on_round] is called with the round number once before each
      round, on either engine. An exception it raises aborts the run:
      that is how a supervised run observes its deadline.

      [mode] selects the engine: [`Auto] (default) uses the counted path
      whenever no [trace] and no [network] hook is installed, [`Concrete]
      forces the per-pair reference path (differential testing).

      @raise Round_limit_exceeded after [max_rounds] (default 100_000)
      rounds with honest processes still running.
      @raise Invalid_argument if a faulty id is out of range, both
      [group_key] and [grouping] are given, or a faulty process's
      outbox, after the adversary's step, holds a pair naming no
      process. *)

  val honest_decisions : 'r outcome -> (int * 'r) list
  (** Decisions of the honest processes, as [(id, value)] pairs. *)
end

module Make (M : MSG) : S with type msg = M.t
