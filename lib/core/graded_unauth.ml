(* Plain unauthenticated graded consensus for t < n/3 (the paper's
   Theorem 7, restated from Civit et al.). It is Algorithm 3 with the
   listening set fixed to everyone, which turns the thresholds
   2k+1 / k+1 over |L| = 3k+1 listeners into n-t / t+1 over n.

   Properties (for t < n/3, i.e. n >= 3t + 1):

   - Strong Unanimity: if every honest process inputs v, all n - t >= 2t+1
     honest INIT votes carry v, so every honest process adopts b = v and
     echoes it, yielding n - t echoes of v and grade 1 everywhere.
   - Coherence: if some honest process returns (v, 1) it saw n - t echoes
     of v, at least n - 2t >= t + 1 of them honest. Every honest process
     therefore sees >= t + 1 echoes of v. An honest process with b <> bot
     has b = v (two values cannot each collect n - t first-round votes,
     and an honest echoer of w <> v would imply w collected n - t votes);
     an honest process with b = bot sees v at least t + 1 times and no
     other value more than t times (only faulty echo other values), so it
     returns (v, 0). *)

module Inbox = Bap_sim.Inbox

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) = struct
  module Ps = Phase_span.Make (R)

  let rounds = 2

  (* [b] is a pure function of the first inbox and (tag, t), and the
     outcome one of the second inbox and (tag, t, b): on a shared inbox
     each runs once per round. The outcome is [None] where a process
     falls back to its own input, which stays outside the memo. *)
  let b_key : (int * int, V.t option) Inbox.key = Inbox.key ()
  let outcome_key : ((int * int) * V.t option, (V.t * int) option) Inbox.key = Inbox.key ()
  let same_params (tag, t) (tag', t') = Int.equal tag tag' && Int.equal t t'

  let same_round2 (p, b) (p', b') = same_params p p' && Option.equal V.equal b b'

  let first_round inbox (tag, t) =
    let votes =
      Inbox.first inbox ~f:(function
        | W.Gc_init (tg, w) when tg = tag -> Some w
        | _ -> None)
    in
    match Inbox.plurality votes ~compare:V.compare with
    | Some (w, c) when c >= Inbox.size inbox - t -> Some w
    | Some _ | None -> None

  let second_round inbox ((tag, t), b) =
    let echoes =
      Inbox.first inbox ~f:(function
        | W.Gc_echo (tg, w) when tg = tag -> Some w
        | _ -> None)
    in
    match b with
    | Some bv ->
      Some (bv, if Inbox.count echoes ~eq:V.equal bv >= Inbox.size inbox - t then 1 else 0)
    | None -> (
      match Inbox.plurality echoes ~compare:V.compare with
      | Some (w, c) when c >= t + 1 -> Some (w, 0)
      | Some _ | None -> None)

  let run ctx ~t ~tag v =
    Ps.run ctx "gc" @@ fun () ->
    let params = (tag, t) in
    let inbox = R.broadcast ctx (W.Gc_init (tag, v)) in
    let b = Inbox.memo inbox b_key ~eq:same_params params first_round in
    let second = match b with Some w -> [ W.Gc_echo (tag, w) ] | None -> [] in
    let inbox' = R.broadcast_list ctx second in
    match Inbox.memo inbox' outcome_key ~eq:same_round2 (params, b) second_round with
    | Some r -> r
    | None -> (v, 0)
end
