(* A network-tap security monitor: the component the paper assumes as
   its source of predictions (Darktrace/Vectra/Zeek in the
   introduction), built for real on top of the simulator's traces.

   The observer watches all traffic of an execution and flags processes
   on behavioural evidence only (it never looks at the trace's
   ground-truth [byzantine] bit):

   - {b equivocation}: sending two different payloads for the same
     broadcast-shaped message (same round, same constructor, same tag /
     instance) to different recipients;
   - {b mandatory-broadcast silence}: in an Algorithm 1 execution every
     process must broadcast its advice in round 1 and its graded-
     consensus vote in round 2 (no honest process can have terminated
     yet); a process that says nothing in those rounds is flagged;
   - {b malformed advice}: an advice vector of the wrong length;
   - {b degenerate leader sets}: a conciliation message declaring a
     leader set of size <= 1, which no honest process ever sends
     (honest L sets have 3k+1 >= 4 members).

   Detection is sound for these classes (honest processes never trigger
   them) but deliberately incomplete - a faulty process that follows the
   protocol to the letter is undetectable, and also harmless. This is
   exactly the prediction model of the paper: advice that may miss
   attackers and is refreshed between executions. The detection rules
   are an arms race - an attacker aware of a rule can often adapt around
   it (the paper's footnote about novel attacks evading monitoring), and
   the agreement protocol is exactly what keeps such an attacker from
   ever threatening safety. *)

module Advice = Bap_prediction.Advice
module Trace = Bap_sim.Trace

module Make (V : Bap_core.Value.S) (W : Bap_core.Wire.S with type value = V.t) = struct
  type verdict = {
    suspects : int list;  (** Flagged processes, ascending. *)
    evidence : (int * string) list;  (** Per-suspect human-readable reason. *)
  }

  (* The broadcast-shaped payload of a message, if the protocol requires
     this message to be identical towards every recipient. Returns a
     fingerprint that must match across recipients, keyed by an instance
     discriminator. *)
  let broadcast_fingerprint (msg : W.t) =
    match msg with
    | W.Advice a -> Some (("advice", 0), Fmt.str "%a" Advice.pp a)
    | W.Gc_init (tag, v) -> Some (("gc-init", tag), V.encode v)
    | W.Gc_echo (tag, v) -> Some (("gc-echo", tag), V.encode v)
    | W.King (tag, v) -> Some (("king", tag), V.encode v)
    | W.Conc (tag, v, l) ->
      Some
        ( ("conc", tag),
          String.concat ";" (V.encode v :: List.map string_of_int l) )
    | W.Gcast_init (tag, sv) -> Some (("gcast-init", tag), V.encode sv.W.sv_value)
    | W.Final_value (tag, v, _) -> Some (("final", tag), V.encode v)
    (* Unicast or legitimately recipient-dependent messages: no
       fingerprint. Chains are re-broadcast by relays and a process may
       broadcast two chains per instance legally, so they are analysed
       separately below. *)
    | W.Gcast_echo _ | W.Gcast_report _ | W.Committee_vote _ | W.Bb_chain _ -> None

  (* Chain-root equivocation: two roots for the same broadcast instance
     with different values, signed by the same sender. *)
  let root_fingerprint (msg : W.t) =
    match msg with
    | W.Bb_chain (tag, instance, W.Chain_root { value; _ }) ->
      Some ((tag, instance), V.encode value)
    | _ -> None

  let observe ~n trace =
    let suspects = Hashtbl.create 8 in
    let flag who reason =
      if not (Hashtbl.mem suspects who) then Hashtbl.replace suspects who reason
    in
    (* Group deliveries by round and source. *)
    let round = ref 0 in
    (* (src, shape-key) -> fingerprint seen this round *)
    let seen : (int * (string * int), string) Hashtbl.t = Hashtbl.create 64 in
    let roots : (int * (int * int), string) Hashtbl.t = Hashtbl.create 16 in
    let spoke_round1 = Array.make n false in
    let spoke_round2 = Array.make n false in
    let round2_speakers = ref 0 in
    List.iter
      (fun event ->
        match event with
        | Trace.Round_begin r ->
          round := r;
          Hashtbl.reset seen;
          Hashtbl.reset roots
        | Trace.Round_end _ -> ()
        | Trace.Decide _ -> ()
        | Trace.Deliver { src; dst = _; msg; byzantine = _ } ->
          if !round = 1 && src >= 0 && src < n then spoke_round1.(src) <- true;
          if !round = 2 && src >= 0 && src < n && not spoke_round2.(src) then begin
            spoke_round2.(src) <- true;
            incr round2_speakers
          end;
          (match msg with
          | W.Advice a when Advice.length a <> n ->
            flag src (Printf.sprintf "malformed advice in round %d" !round)
          | W.Conc (_, _, l) when List.length l <= 1 ->
            flag src (Printf.sprintf "degenerate leader set in round %d" !round)
          | _ -> ());
          (match broadcast_fingerprint msg with
          | Some (key, fp) -> (
            match Hashtbl.find_opt seen (src, key) with
            | Some fp' when fp' <> fp ->
              flag src (Printf.sprintf "equivocation in round %d" !round)
            | Some _ -> ()
            | None -> Hashtbl.replace seen (src, key) fp)
          | None -> ());
          match root_fingerprint msg with
          | Some (key, fp) -> (
            match Hashtbl.find_opt roots (src, key) with
            | Some fp' when fp' <> fp ->
              flag src (Printf.sprintf "conflicting chain roots in round %d" !round)
            | Some _ -> ()
            | None -> Hashtbl.replace roots (src, key) fp)
          | None -> ())
      (Trace.events trace);
    for src = 0 to n - 1 do
      if not spoke_round1.(src) then flag src "silent in the advice round"
    done;
    (* Only meaningful when round 2 was indeed a mandatory broadcast
       (a majority spoke). *)
    if !round2_speakers > n / 2 then
      for src = 0 to n - 1 do
        if not spoke_round2.(src) then flag src "silent in a mandatory broadcast round"
      done;
    let evidence =
      Hashtbl.fold (fun who reason acc -> (who, reason) :: acc) suspects []
      |> List.sort compare
    in
    { suspects = List.map fst evidence; evidence }

  (* Advice for the next execution: previously flagged processes are
     predicted faulty, everyone else honest. All processes receive the
     same vector - the monitor is a shared network tap. *)
  let advice_of_verdict ~n verdict =
    let a = Advice.init n (fun j -> not (List.mem j verdict.suspects)) in
    Array.make n a
end
