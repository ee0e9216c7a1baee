(** Length-prefixed frame codec for the agreement service.

    A frame is a 4-byte big-endian payload length followed by the
    payload bytes (JSON, by convention — the codec itself is
    payload-agnostic). The length prefix is what lets the stream
    survive a garbage payload: the decoder always knows where the next
    frame starts, so one unparseable instance degrades one response,
    never the connection.

    Two failure shapes are typed instead of raised:

    - {e torn} input — the stream ends mid-prefix or mid-payload, the
      shape a killed client or a mid-write disconnect leaves behind.
      Like the journal's torn tail, the valid prefix of frames is
      delivered and the ragged remainder is counted, not fatal.
    - {e oversized} input — a length prefix above [max_len]. Since the
      bytes that follow cannot be trusted to be a frame boundary, the
      decoder refuses to resynchronise: the connection is poisoned and
      must be dropped (after a typed rejection), never buffered. *)

val default_max_len : int
(** 1 MiB. *)

val encode : string -> string
(** [encode payload] is the wire form: 4-byte big-endian length +
    payload. Raises [Invalid_argument] on payloads whose length cannot
    be represented (>= 2^31). *)

type decoder
(** Incremental decoder over a byte stream fed in arbitrary chunks. *)

val decoder : ?max_len:int -> unit -> decoder
(** A fresh decoder; [max_len] (default {!default_max_len}) bounds the
    payload length it will accept. *)

type next =
  | Frame of string  (** one complete payload *)
  | Await  (** no complete frame buffered; feed more bytes *)
  | Oversized of int
      (** a length prefix above [max_len]; the stream cannot be
          resynchronised and the decoder stays poisoned *)

val feed : decoder -> bytes -> pos:int -> len:int -> unit
(** Append a chunk of stream bytes. Bytes fed after {!next} returned
    [Oversized] are discarded. *)

val feed_string : decoder -> string -> unit

val next : decoder -> next
(** Pull the next complete frame, if any. *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed by a complete frame — nonzero at
    end-of-stream means the stream was torn mid-frame. *)

val poisoned : decoder -> bool
(** Whether the decoder saw an oversized prefix and refuses more. *)

type tail = Clean | Torn of int | Oversized_tail of int

val decode_all : ?max_len:int -> string -> string list * tail
(** One-shot decode of a complete stream capture: every whole frame in
    order, plus how the stream ended ([Torn n] = [n] trailing bytes
    that do not form a frame). Used by the codec tests; the server uses
    the incremental decoder. *)
