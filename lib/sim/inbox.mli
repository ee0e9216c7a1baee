(** A round's inbox and the per-sender vote extracts protocols read off
    it.

    An inbox (as returned by {!Runtime.S.exchange}) maps each sender to
    the messages it delivered this round. Two representations coexist:
    the classic concrete per-sender array, and the scalable core's
    counted form, where identical honest broadcasts collapse into
    (payload, sender-bitset) groups plus sparse per-sender overrides.
    All reading operations behave identically on both; the runtime's
    differential tests assert byte-identical protocol outcomes.

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
(** Messages from one sender ([[]] if it delivered nothing). *)

val to_array : 'msg t -> 'msg list array

val iter : 'msg t -> f:('msg list -> unit) -> unit
(** Slots in sender order, including empty ones. *)

val iteri : 'msg t -> f:(int -> 'msg list -> unit) -> unit

val first : 'msg t -> f:('msg -> 'a option) -> 'a votes
(** [first inbox ~f] keeps, per sender, the first message that [f]
    accepts. On a counted inbox [f] runs once per distinct payload, so
    it must be pure. *)

val firsti : 'msg t -> f:(int -> 'msg -> 'a option) -> 'a votes
(** Like {!first} for sender-dependent parsers (e.g. signature checks
    against the channel). Runs once per sender on any representation. *)

val all : 'msg t -> f:('msg -> 'a option) -> 'a list array
(** Every accepted message, per sender. *)

val votes : 'a option array -> 'a votes
(** Wrap a plain per-sender vote array (e.g. one assembled locally). *)

val votes_length : 'a votes -> int
val votes_get : 'a votes -> int -> 'a option
val votes_to_array : 'a votes -> 'a option array
val votes_mapi : 'a votes -> f:(int -> 'a option -> 'b option) -> 'b votes

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

val senders : 'a votes -> int list
(** Senders with an accepted value, ascending. *)

val restrict : 'a votes -> keep:Bitset.t -> 'a votes
(** Drop the votes of senders outside [keep] (listening-set
    restriction). *)
