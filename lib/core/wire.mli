(** Wire format shared by every protocol in one stack instance.

    All sub-protocols of Algorithm 1 run inside a single fiber per
    process, so their messages share one variant type. Instance [tag]s
    disambiguate concurrent or successive sub-protocol instances;
    honest processes run in lock-step so tags are computed identically
    everywhere, and each protocol step only parses messages carrying
    its own tag.

    There is one signature-chain family, {!S.chain}: Algorithm 6's
    committee chains, which with zero-signature certificates are also
    the Dolev-Strong baseline's chains. *)

module Pki = Bap_crypto.Pki
module Advice = Bap_prediction.Advice

module type S = sig
  type value

  type tag = int

  (** {1 Authenticated gradecast} (building block of the t < n/2 graded
      consensus) *)

  type signed_value = { sv_dealer : int; sv_value : value; sv_sig : Pki.signature }
  (** A dealer's signed proposal. *)

  type gcast_echo = { ge_signed : signed_value; ge_sig : Pki.signature }
  (** An echoer's signature over a dealer proposal it received directly. *)

  type echo_cert = { ec_signed : signed_value; ec_echoes : (int * Pki.signature) list }
  (** [n - t] echo signatures on one dealer proposal. *)

  type gcast_report = {
    gr_dealer : int;
    gr_cert : echo_cert option;
    gr_conflict : (signed_value * signed_value) option;
        (** Two dealer signatures on different values: equivocation proof. *)
  }

  (** {1 Committee machinery} (Algorithms 6 and 7, and Dolev-Strong as
      Algorithm 6 with zero-signature certificates) *)

  type committee_cert = { cc_member : int; cc_sigs : (int * Pki.signature) list }

  type chain =
    | Chain_root of { value : value; cert : committee_cert; link_sig : Pki.signature }
    | Chain_link of { prev : chain; signer : int; cert : committee_cert; link_sig : Pki.signature }

  type t =
    | Advice of Advice.t
    | Gc_init of tag * value  (** Graded consensus round 1 / gradecast value. *)
    | Gc_echo of tag * value  (** Graded consensus round 2. *)
    | Conc of tag * value * int list  (** Conciliation: value and the sender's [L] set. *)
    | King of tag * value  (** Early-stopping phase-king broadcast. *)
    | Gcast_init of tag * signed_value
    | Gcast_echo of tag * gcast_echo list
    | Gcast_report of tag * gcast_report list
    | Committee_vote of tag * Pki.signature
    | Bb_chain of tag * int * chain  (** [int] is the broadcast instance's sender. *)
    | Final_value of tag * value * committee_cert

  (** {1 Per-execution validation memo} *)

  type memo
  (** What one execution has already encoded and checked, shared by all
      of its processes: each (tag, dealer, value) triple's gradecast
      payloads, each committee certificate's validity and encoding, and
      each chain node's link check and encoding. Certificates and chain
      nodes are keyed by physical identity, so a structurally equal copy
      is checked afresh. Sound because {!Pki.verify} is pure and wire
      values are immutable; the harness never hands a memo to the
      adversary. *)

  val memo : Pki.t -> memo
  (** An empty memo for one execution under [pki]. The validators below
      raise [Invalid_argument] when given a memo of another PKI. *)

  (** {1 Signature payloads}

      Given a memo, each payload is encoded once per execution.
      Gradecast's dealer and echo payloads carry the instance tag beside
      the dealer and the value, so a signature made in one gradecast
      never verifies in another gradecast of the same execution: a
      faulty process cannot replay another instance's certificates. *)

  val committee_payload : int -> string
  val dealer_payload : ?memo:memo -> tag:tag -> dealer:int -> value -> string
  val echo_payload : ?memo:memo -> tag:tag -> dealer:int -> value -> string
  val chain_root_payload : ?memo:memo -> value -> committee_cert -> string
  val chain_link_payload : ?memo:memo -> chain -> committee_cert -> string

  (** {1 Validation}

      Without a memo, each call runs on a fresh one: there is one
      validator, and the uncached call is its memoised path. *)

  val valid_signed_value : ?memo:memo -> Pki.t -> tag:tag -> signed_value -> bool
  (** Valid iff the dealer signed [dealer_payload ~tag]. *)

  val valid_echo_cert :
    ?memo:memo -> Pki.t -> tag:tag -> threshold:int -> echo_cert -> bool
  (** Valid iff it carries [threshold] echo signatures by distinct
      processes over a valid dealer signature, all under [tag]. *)

  val valid_committee_cert : ?memo:memo -> Pki.t -> quorum:int -> committee_cert -> bool
  (** Valid iff it carries [quorum] signatures by distinct processes on
      [committee_payload cc_member]. *)

  val chain_value : chain -> value

  val chain_sender : chain -> int
  (** The process that started the chain (its root certificate member). *)

  val chain_signers : chain -> int list
  (** Signers from root to tip. *)

  val chain_length : chain -> int

  val valid_chain :
    ?memo:memo -> Pki.t -> quorum:int -> sender:int -> length:int -> chain -> bool
  (** A valid message chain of exactly [length] links started by
      [sender]: every link is correctly signed by a distinct process that
      carries a valid committee certificate ([quorum] = t + 1 in
      Algorithm 7; 0 in Dolev-Strong, where every certificate is empty). *)

  val size_bits : t -> int
  (** Estimated wire size of a message in bits, for communication-
      complexity accounting: values cost their canonical encoding,
      signatures a constant 256 bits, identifiers and tags 32 bits. *)

  (** {1 Byte-level codec} for the signature-free messages, used by the
      chaos layer's corruption injector (flip bits in the encoded
      bytes, then decode what survives). Signature-carrying messages
      have no codec: signatures are unforgeable capabilities with
      deliberately no decoder (see {!Pki.encode}), which models the
      fact that a corrupted signed message can never verify and is
      therefore equivalent to a drop. *)

  val encode_plain : t -> string option
  (** [Some bytes] for [Advice], [Gc_init], [Gc_echo], [Conc] and
      [King]; [None] for the signature-carrying constructors. *)

  val decode_plain : string -> t option
  (** Total inverse: [decode_plain bytes] is [Some m] iff [bytes] is
      exactly [encode_plain m]'s output for some [m] (up to the value
      domain's own [decode] laxity). Never raises, whatever the input —
      corrupted bytes must fail cleanly, not leak exceptions into
      protocol code. *)

  (** {1 Grouping} the counted engine's key for the signature-free
      messages: identical honest broadcasts collapse into one group
      without building their bytes. *)

  val plain : t -> t option
  (** [Some m] exactly when [encode_plain m] is [Some _]. *)

  val equal : t -> t -> bool
  (** On signature-free messages, [equal a b] iff
      [encode_plain a = encode_plain b], decided with [V.equal],
      [Advice.equal] and int-list equality; [false] whenever either
      message carries a signature. *)

  val hash : t -> int
  (** Mixes the constructor, the tag, the advice vector's words and the
      declared L set; values are left to {!equal}. [equal a b] implies
      [hash a = hash b]. *)

  val pp : t Fmt.t
end

module Make (V : Value.S) : S with type value = V.t
