(* Chaos for the harness itself: PR 1 made the simulated protocol
   fault-injectable; this schedule attacks the execution stack that runs
   it. Faults are derived purely from (seed, cell key, attempt), so two
   runs of the same seed inject exactly the same crashes and hangs at
   any --jobs level — which is what lets the tests assert that a
   fault-injected sweep recovers to byte-identical output.

   The recovery guarantee is built into the schedule: a non-doomed cell
   only faults on its first [faulty_attempts] attempts, so any retry
   budget >= faulty_attempts recovers every such cell. Doomed cells
   (off by default) fault on every attempt — they exercise the
   quarantine / DEGRADED path. *)

type frame_fault =
  | Corrupt_payload
  | Disconnect_mid_frame
  | Disconnect_on_respond

type t = {
  seed : int;
  crash_pct : int;
  hang_pct : int;
  doomed_pct : int;
  faulty_attempts : int;
  frame_corrupt_pct : int;
  disconnect_pct : int;
  respond_disconnect_pct : int;
  kill9_pct : int;
}

let create ?(crash_pct = 25) ?(hang_pct = 10) ?(doomed_pct = 0)
    ?(faulty_attempts = 2) ?(frame_corrupt_pct = 0) ?(disconnect_pct = 0)
    ?(respond_disconnect_pct = 0) ?(kill9_pct = 0) ~seed () =
  let pct name v =
    if v < 0 || v > 100 then
      invalid_arg (Printf.sprintf "Harness.create: %s = %d not in 0..100" name v)
  in
  pct "crash_pct" crash_pct;
  pct "hang_pct" hang_pct;
  pct "doomed_pct" doomed_pct;
  pct "frame_corrupt_pct" frame_corrupt_pct;
  pct "disconnect_pct" disconnect_pct;
  pct "respond_disconnect_pct" respond_disconnect_pct;
  pct "kill9_pct" kill9_pct;
  if crash_pct + hang_pct > 100 then
    invalid_arg "Harness.create: crash_pct + hang_pct > 100";
  if frame_corrupt_pct + disconnect_pct + respond_disconnect_pct > 100 then
    invalid_arg
      "Harness.create: frame_corrupt_pct + disconnect_pct + \
       respond_disconnect_pct > 100";
  if faulty_attempts < 0 then invalid_arg "Harness.create: faulty_attempts < 0";
  {
    seed;
    crash_pct;
    hang_pct;
    doomed_pct;
    faulty_attempts;
    frame_corrupt_pct;
    disconnect_pct;
    respond_disconnect_pct;
    kill9_pct;
  }

let djb2 s =
  String.fold_left (fun h c -> ((h * 33) + Char.code c) land max_int) 5381 s

let roll t ~salt ~key = djb2 (Printf.sprintf "%d|%s|%s" t.seed salt key) mod 100

let doomed t ~key = roll t ~salt:"doom" ~key < t.doomed_pct

let decide t ~key ~attempt : Bap_exec.Supervisor.injected option =
  if doomed t ~key then Some Inject_crash
  else if attempt >= t.faulty_attempts then None
  else
    let r = roll t ~salt:(string_of_int attempt) ~key in
    if r < t.crash_pct then Some Inject_crash
    else if r < t.crash_pct + t.hang_pct then Some Inject_hang
    else None

(* Frame-level chaos for the serve load generator. The decision is
   keyed on the frame (not the attempt): a corrupted frame stays
   corrupted, a doomed write stays doomed, at any --jobs level. The
   client applies the damage — the server under test only ever sees
   its consequences. *)

let frame_fault t ~key =
  let r = roll t ~salt:"frame" ~key in
  if r < t.frame_corrupt_pct then Some Corrupt_payload
  else if r < t.frame_corrupt_pct + t.disconnect_pct then
    Some Disconnect_mid_frame
  else if
    r < t.frame_corrupt_pct + t.disconnect_pct + t.respond_disconnect_pct
  then Some Disconnect_on_respond
  else None

(* Server-side SIGKILL chaos: the probe is polled once per instance at
   the answer point (after execution, before the respond record), so a
   hit crashes the server at the worst moment durability must survive —
   work done, answer not yet journaled. Keyed on the instance key only:
   a resumed incarnation must pass the probe for the *same* keys it
   recovered, so the driver disables kill9 on restart. *)
let kill9 t ~key = t.kill9_pct > 0 && roll t ~salt:"kill9" ~key < t.kill9_pct

let corrupt_byte t ~key ~len =
  if len <= 0 then invalid_arg "Harness.corrupt_byte: len <= 0";
  let off = djb2 (Printf.sprintf "%d|frameoff|%s" t.seed key) mod len in
  (* Mask is never 0, so the byte always changes and the corruption is
     guaranteed visible to the codec or the JSON parser. *)
  let mask = 1 + (djb2 (Printf.sprintf "%d|framemask|%s" t.seed key) mod 255) in
  (off, mask)
