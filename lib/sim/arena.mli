(** Reusable round buffer for {!Runtime}'s concrete delivery path.

    One arena lives for a whole execution; {!clear} wipes it between
    rounds instead of reallocating an n x n matrix per round. The
    no-leak property (a cleared arena never shows a previous round's
    message) is asserted by the inbox property tests. *)

type 'msg t = {
  n : int;
  eff : 'msg list array array;  (** The round's traffic, [[src].(dst)]. *)
}

val create : int -> 'msg t
val clear : 'msg t -> unit
