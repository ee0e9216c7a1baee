(** A round's inbox and the per-sender vote extracts protocols read off
    it.

    An inbox (as returned by {!Runtime.S.broadcast} and the other round
    calls) maps each sender to the messages it delivered this round. Two
    representations coexist: the classic concrete per-sender array, and
    the scalable core's counted form, where identical honest broadcasts
    collapse into (payload, sender-bitset) groups plus sparse per-sender
    overrides. All reading operations behave identically on both; the
    runtime's differential tests assert byte-identical protocol
    outcomes.

    There are two ways to read a round: a tally ({!first} or {!firsti},
    then {!count}, {!plurality} or {!fold_weighted}), and a walk over
    the senders that delivered, in ascending order ({!iteri} over
    messages, {!votes_iteri} over accepted votes). {!get} is a point
    read. On a counted inbox no reader builds an n-slot view: a walk
    costs one step per sender that delivered, plus a bitset of n/63
    words.

    Byzantine senders may deliver several or malformed messages;
    protocol steps therefore parse with a partial function and, where a
    threshold is being counted, must take at most one vote per sender —
    {!first} enforces exactly that. *)

type 'msg t

type 'a votes
(** At most one accepted value per sender. *)

val concrete : 'msg list array -> 'msg t
(** Wrap a per-sender array (slot [s] = messages from sender [s]). *)

val counted :
  n:int ->
  groups:('msg list * Bitset.t) array ->
  direct:(int * 'msg list) array ->
  'msg t
(** Counted representation. Invariants (the runtime maintains them): a
    sender is in at most one group's bitset; [direct] is sorted by
    sender ascending and disjoint from every group; a sender in neither
    delivered nothing. *)

val shared :
  n:int ->
  groups:('msg list * Bitset.t) array ->
  direct:(int * 'msg list) array ->
  'msg t
(** {!counted}, marked as the one inbox the runtime hands every
    recipient of a round: the only kind of inbox that memoizes (see
    {!memo}). *)

val size : 'msg t -> int
(** Number of processes [n]. *)

(** {1 Once-per-round derivations} *)

type ('a, 'b) key
(** Names one derivation from an argument of type ['a] to a result of
    type ['b]. *)

val key : unit -> ('a, 'b) key
(** A fresh key. Create one per call site, once (at module
    initialisation), not per call: results are shared only between
    calls that use the same key. *)

val memo :
  'msg t -> ('a, 'b) key -> eq:('a -> 'a -> bool) -> 'a -> ('msg t -> 'a -> 'b) -> 'b
(** [memo inbox key ~eq arg f] is [f inbox arg]. On a shared inbox the
    first call with [key] and an argument [eq] to [arg] runs [f] and
    keeps its result, and every later such call returns that same
    (physically equal) result without running [f]; every other inbox
    computes directly and shares nothing. The contract is {!first}'s for
    parsers: [f] must be pure, reading nothing but its inbox and its
    argument, and nobody may mutate the result. *)

val get : 'msg t -> int -> 'msg list
(** Messages from one sender ([[]] if it delivered nothing). On a
    counted inbox O(log |direct| + groups). *)

val iteri : 'msg t -> f:(int -> 'msg list -> unit) -> unit
(** [iteri inbox ~f] calls [f sender msgs] for each sender that
    delivered something, in ascending sender order. *)

val first : 'msg t -> f:('msg -> 'a option) -> 'a votes
(** [first inbox ~f] keeps, per sender, the first message that [f]
    accepts. On a counted inbox [f] runs once per distinct payload, so
    it must be pure. *)

val firsti : 'msg t -> f:(int -> 'msg -> 'a option) -> 'a votes
(** Like {!first} for sender-dependent parsers (e.g. signature checks
    against the channel): [f sender] parses the messages of each sender
    that delivered, in ascending sender order, so it too must be pure. *)

val votes : 'a option array -> 'a votes
(** Wrap a plain per-sender vote array (e.g. one assembled locally). *)

val votes_iteri : 'a votes -> f:(int -> 'a -> unit) -> unit
(** [votes_iteri votes ~f] calls [f sender v] for each sender with an
    accepted value [v], in ascending sender order. *)

val votes_mapi : 'a votes -> f:(int -> 'a option -> 'b option) -> 'b votes
(** [votes_mapi votes ~f] rewrites each sender's entry. [f] runs for
    every sender that delivered (its entry possibly [None]); on a
    counted extract a sender that delivered nothing stays absent, so
    [f sender None] must be [None]. *)

val fold_weighted : 'a votes -> init:'b -> f:('b -> 'a -> int -> 'b) -> 'b
(** Fold over (value, multiplicity) entries. The counted representation
    presents each distinct value once with its sender-count, the
    concrete one each sender separately — [f] must therefore be
    insensitive to grouping and visit order (counts, sums, min/max). *)

val count : 'a votes -> eq:('a -> 'a -> bool) -> 'a -> int
(** Number of senders whose (unique) accepted value equals the given
    one. *)

val plurality : 'a votes -> compare:('a -> 'a -> int) -> ('a * int) option
(** The value accepted from the most senders together with its
    multiplicity; ties broken towards the smallest value. [None] when no
    sender's value was accepted. *)

val restrict : 'a votes -> keep:Bitset.t -> 'a votes
(** Drop the votes of senders outside [keep] (listening-set
    restriction). *)
