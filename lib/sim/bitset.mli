(** Flat bitsets over the process identifier space [0, n).

    The scalable-core representation for sender sets and prediction
    vectors: one machine word per {!bits_per_word} identifiers, so
    membership is O(1) and popcount / intersection are O(n / word size).
    Mutable; modules that expose bitsets behind functional interfaces
    (e.g. the prediction layer) copy before mutating. *)

type t

val bits_per_word : int

val create : int -> t
(** All-zero bitset of the given length. @raise Invalid_argument on a
    negative length. *)

val length : t -> int
val init : int -> (int -> bool) -> t
val of_list : int -> int list -> t

val set : t -> int -> unit
val clear : t -> int -> unit
val assign : t -> int -> bool -> unit
val get : t -> int -> bool
(** @raise Invalid_argument when the index is outside [0, length). *)

val mem : t -> int -> bool
(** Like {!get} but total: [false] outside [0, length). *)

val copy : t -> t
val cardinal : t -> int

val iter : t -> f:(int -> unit) -> unit
(** Ascending identifier order. *)

val to_list : t -> int list
(** Ascending. *)

val equal : t -> t -> bool

val hash : t -> int
(** Non-negative, reads the length and every word: [equal a b] implies
    [hash a = hash b]. *)

val inter : t -> t -> t
val union_into : into:t -> t -> unit

val at_least : length:int -> threshold:int -> (t * int) list -> t
(** [at_least ~length ~threshold weighted] holds the ids whose weight,
    the sum of the multiplicities of the sets in [weighted] that contain
    them, is at least [threshold] (every id when [threshold <= 0]). The
    count is word-parallel: O(|weighted| * log total * length /
    {!bits_per_word}) with no per-id loop and O(log total) words of
    scratch. @raise Invalid_argument when a set's length is not
    [length] or a multiplicity is negative. *)
