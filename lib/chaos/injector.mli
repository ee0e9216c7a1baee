(** The two interpreters of a fault {!Schedule}: Byzantine-side faults
    compile, one combinator each, to a composed [Bap_sim.Adversary.t];
    network-side faults compile to the runtime's [?network] hook. Both
    are pure functions of the schedule value, so a (seed, schedule)
    pair replays bit-identically. *)

module Make (V : Bap_core.Value.S) (W : Bap_core.Wire.S with type value = V.t) : sig
  val crash_at : proc:int -> round:int -> W.t Bap_sim.Adversary.t
  val omit_to : proc:int -> dst:int -> first:int -> last:int -> W.t Bap_sim.Adversary.t

  val equivocate :
    mutant:(int -> V.t -> V.t) ->
    proc:int ->
    first:int ->
    last:int ->
    salt:int ->
    W.t Bap_sim.Adversary.t

  val advice_flip : proc:int -> bit:int -> W.t Bap_sim.Adversary.t

  val corrupt_msg : bit:int -> W.t -> W.t option
  (** One encoded bit flipped; [None] when the result no longer
      decodes (the corrupted message is dropped). *)

  val adversary : mutant:(int -> V.t -> V.t) -> Schedule.t -> W.t Bap_sim.Adversary.t
  (** All Byzantine-side faults of the schedule, composed.
      [mutant salt v] must differ from [v] for equivocation to bite. *)

  val network :
    Schedule.t -> (round:int -> src:int -> dst:int -> W.t list -> W.t list) option
  (** All network-side faults of the schedule, as the runtime's
      [?network] hook. Touches every edge — this is where
      envelope-probing faults on honest traffic live. [None] when the
      schedule has no network-side fault: the hook would be the
      identity, and installing it keeps a run off the runtime's counted
      engine. *)
end
