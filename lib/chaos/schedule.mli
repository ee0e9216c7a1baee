(** Serializable fault schedules.

    A schedule is a plain list of fault descriptions — no closures, no
    generator state — so any chaos execution is replayable exactly from
    the value, shrinkable by list surgery, and printable as an OCaml
    literal that pastes into a regression test. The two interpreters
    live in {!Injector}. *)

type fault =
  | Crash_at of { proc : int; round : int }
      (** [proc] sends nothing from [round] on (crash failure). *)
  | Omit_to of { proc : int; dst : int; first : int; last : int }
      (** [proc] omits all its messages to [dst] in rounds
          [first..last] (send-omission fault). *)
  | Drop of { src : int; dst : int; round : int }
      (** The edge [src -> dst] loses its messages in [round]. *)
  | Duplicate of { src : int; dst : int; round : int }
      (** Every message on the edge is delivered twice. *)
  | Reorder of { src : int; dst : int; round : int }
      (** The within-round delivery order of the edge is reversed. *)
  | Corrupt of { src : int; dst : int; round : int; bit : int }
      (** Every message on the edge has one encoded bit flipped;
          messages that no longer decode are dropped. *)
  | Equivocate of { proc : int; first : int; last : int; salt : int }
      (** [proc] sends value-carrying messages with a [salt]-mutated
          value to odd recipients in rounds [first..last]. *)
  | Advice_flip of { proc : int; bit : int }
      (** [proc] flips one bit of every advice vector it broadcasts. *)

type t = fault list

val pp : Format.formatter -> t -> unit
(** Prints as a pasteable OCaml literal. *)

val equal : t -> t -> bool
val length : t -> int

val within_envelope : is_faulty:bool array -> fault -> bool
(** Is this fault within the paper's adversary model (every
    model-breaking fault names a faulty process)? Schedules outside the
    envelope are still expressible — that is how tests probe that the
    oracles actually fire. *)

val gen :
  Bap_sim.Rng.t -> n:int -> faulty:int array -> rounds:int -> count:int -> t
(** Random schedule drawn entirely from one [Rng] stream, always within
    the envelope of the given fault set. *)
