(** Classification-prediction bit vectors.

    An advice vector [a] for a system of [n] processes assigns each
    process [j] a bit: [get a j = true] means "[p_j] is predicted honest"
    (the paper's [a_i\[j\] = 1]); [false] means predicted faulty. *)

type t

val length : t -> int

val make : int -> bool -> t
(** [make n bit] is the constant vector. *)

val init : int -> (int -> bool) -> t
val get : t -> int -> bool
val set : t -> int -> bool -> t
(** Functional update. *)

val flip : t -> int -> t

val ground_truth : n:int -> faulty:int array -> t
(** The correct classification [c-hat]: honest processes map to [true]. *)

val errors_against : truth:t -> t -> int
(** Hamming distance to the ground truth: the number of incorrect bits. *)

val error_positions : truth:t -> t -> int list
(** Indices of the incorrect bits, ascending. *)

val to_bits : t -> string
(** The 0/1 string of {!pp}, as a value: wire encoding of a vector. *)

val of_bits : string -> t option
(** Inverse of {!to_bits}; [None] if any character is not ['0']/['1'].
    Never raises (used on corrupted wire bytes). *)

val of_bool_array : bool array -> t
val to_bool_array : t -> bool array
val equal : t -> t -> bool

val hash : t -> int
(** Reads the length and every bit, so [equal a b] implies
    [hash a = hash b]. *)

val at_least : n:int -> threshold:int -> (t * int) list -> t
(** [at_least ~n ~threshold votes] predicts [p_j] honest iff the
    vectors in [votes] that predict it honest carry a total multiplicity
    of at least [threshold]: the tally of a classification vote, counted
    word-parallel (see {!Bap_sim.Bitset.at_least}).
    @raise Invalid_argument when a vector's length is not [n] or a
    multiplicity is negative. *)

val pp : t Fmt.t
(** Renders as a 0/1 string, e.g. ["110101"]. *)
