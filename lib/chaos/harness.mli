(** Seeded chaos schedules for the execution harness itself.

    Where {!Schedule} injects faults into the *simulated protocol*, this
    module injects them into the *stack that runs the experiments*:
    worker crashes and artificial hangs, derived purely from (seed, cell
    key, attempt). Same seed, same faults — at any [--jobs] level — so
    tests can assert the supervisor recovers a fault-injected sweep to
    byte-identical output. *)

type frame_fault =
  | Corrupt_payload  (** flip one payload byte before it hits the wire *)
  | Disconnect_mid_frame
      (** close the connection after a strict prefix of the frame *)
  | Disconnect_on_respond
      (** send the frame whole, then close before reading the response
          — the server's answer hits a vanished client *)

type t

val create :
  ?crash_pct:int ->
  ?hang_pct:int ->
  ?doomed_pct:int ->
  ?faulty_attempts:int ->
  ?frame_corrupt_pct:int ->
  ?disconnect_pct:int ->
  ?respond_disconnect_pct:int ->
  ?kill9_pct:int ->
  seed:int ->
  unit ->
  t
(** Defaults: 25% crash, 10% hang, 0% doomed, [faulty_attempts = 2],
    0% frame corruption, 0% disconnects (mid-frame or on-respond), 0%
    kill9. A non-doomed cell only faults on its first [faulty_attempts]
    attempts, so any retry budget >= that recovers it — the default
    schedule degrades nothing. [doomed_pct] marks cells that fault on
    {e every} attempt, forcing quarantine.
    The frame percentages drive client-side wire chaos for the serve
    load generator; [kill9_pct] drives the server-side SIGKILL probe.
    Raises [Invalid_argument] on percentages outside 0..100,
    [crash_pct + hang_pct > 100], or
    [frame_corrupt_pct + disconnect_pct + respond_disconnect_pct
    > 100]. *)

val decide :
  t -> key:string -> attempt:int -> Bap_exec.Supervisor.injected option
(** The fault (if any) to inject into this attempt of this cell — the
    supervisor's [inject] hook as-is. Pure: depends only on the
    schedule and its arguments. *)

val doomed : t -> key:string -> bool
(** Whether this cell faults on every attempt under this schedule. *)

val frame_fault : t -> key:string -> frame_fault option
(** The wire-level fault (if any) a chaos client should apply to the
    frame identified by [key]. Pure, keyed on the frame rather than an
    attempt: a corrupted frame is corrupted in every run of the seed,
    which lets the load generator exempt exactly those frames from its
    byte-identity oracle. *)

val kill9 : t -> key:string -> bool
(** Whether the server should die by SIGKILL at the answer point of
    the instance identified by [key] — after execution, before the
    answer is journaled: the worst crash point durability must
    survive. Pure and attempt-free, so a resumed incarnation would
    re-fire on the same keys; run the restart without a kill9
    schedule. *)

val corrupt_byte : t -> key:string -> len:int -> int * int
(** [(offset, mask)] for a [Corrupt_payload] fault on a frame of
    [len] bytes: flip the byte at [offset] with [xor mask]. The mask is
    never 0, so the damage is always visible. Raises
    [Invalid_argument] if [len <= 0]. *)
