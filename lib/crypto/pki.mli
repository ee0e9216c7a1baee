(** Simulated public-key infrastructure with unforgeable signatures.

    The paper (Section 8.1) assumes each process can sign messages and
    every process can verify every signature, with forgery impossible for
    computationally bounded adversaries. We realise exactly that property
    {e within the API}: a signature value can only be produced by calling
    {!sign} with the signer's {!key}, both types are abstract, and keys are
    handed out by the harness — honest keys to honest protocol code, faulty
    keys to the adversary. Each {!create} mints a fresh key universe, so
    signatures never replay across executions. *)

type t
(** One execution's PKI. *)

type key
(** Signing capability for a single process. *)

type signature

val create : n:int -> t
(** Fresh PKI for processes [0 .. n-1]. *)

val n : t -> int

val key : t -> int -> key
(** [key t i] is process [i]'s signing key. The harness must give this
    only to process [i]'s protocol code (or to the adversary when [i] is
    faulty). *)

val signer_of_key : key -> int

val sign : key -> string -> signature
(** Sign a canonical payload (see {!Encode}). *)

val signer : signature -> int
(** Claimed signer; trustworthy only in combination with {!verify}. *)

val verify : t -> signer:int -> payload:string -> signature -> bool
(** True iff the signature was produced by [sign (key t signer) payload]
    under this very PKI. *)

val encode : signature -> string
(** Injective encoding of a signature value, for embedding inside other
    signed payloads (e.g. signature chains). Not a constructor: decoding
    is deliberately not provided. *)

val equal : signature -> signature -> bool
val compare : signature -> signature -> int
