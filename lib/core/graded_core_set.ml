(* Algorithm 3: Unauthenticated Graded Consensus with Core Set.

   Each process listens only to the 3k+1 processes in its set L_i.
   Strong unanimity and coherence (Lemmas 7-9) hold whenever |L_i| = 3k+1
   for every honest i and some core set G of >= 2k+1 honest processes is
   contained in every honest L_i. Without the condition the protocol is
   still safe to run (it always terminates in 2 rounds) but returns
   arbitrary grades. *)

module Inbox = Bap_sim.Inbox

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) = struct
  let rounds = 2

  module Ps = Phase_span.Make (R)

  (* [b] is a pure function of the first inbox and (tag, k, L), and the
     outcome one of the second inbox and (tag, k, L, b): on a shared
     inbox each runs once per round. Whether I am in L, and the fallback
     to my own input, stay outside the memo. *)
  let b_key : (int * int * int list, V.t option) Inbox.key = Inbox.key ()

  let outcome_key : ((int * int * int list) * V.t option, (V.t * int) option) Inbox.key =
    Inbox.key ()

  let same_params (tag, k, l) (tag', k', l') =
    Int.equal tag tag' && Int.equal k k' && (l == l' || List.equal Int.equal l l')

  let same_round2 (p, b) (p', b') = same_params p p' && Option.equal V.equal b b'

  (* The first accepted vote of each sender in L. *)
  let votes_in inbox ~l_set ~f =
    let keep = Bap_sim.Bitset.of_list (Inbox.size inbox) l_set in
    Inbox.restrict (Inbox.first inbox ~f) ~keep

  let first_round inbox (tag, k, l_set) =
    let votes =
      votes_in inbox ~l_set ~f:(function
        | W.Gc_init (tg, w) when tg = tag -> Some w
        | _ -> None)
    in
    match Inbox.plurality votes ~compare:V.compare with
    | Some (w, c) when c >= (2 * k) + 1 -> Some w
    | Some _ | None -> None

  let second_round inbox ((tag, k, l_set), b) =
    let echoes =
      votes_in inbox ~l_set ~f:(function
        | W.Gc_echo (tg, w) when tg = tag -> Some w
        | _ -> None)
    in
    match b with
    | Some bv -> Some (bv, if Inbox.count echoes ~eq:V.equal bv >= (2 * k) + 1 then 1 else 0)
    | None -> (
      match Inbox.plurality echoes ~compare:V.compare with
      | Some (w, c) when c >= k + 1 -> Some (w, 0)
      | Some _ | None -> None)

  let run ctx ~k ~l_set ~tag v =
    Ps.run ctx "gcs" @@ fun () ->
    let in_l = List.mem (R.id ctx) l_set in
    let params = (tag, k, l_set) in
    (* Round 1: members of their own L broadcast their input. *)
    let inbox =
      if in_l then R.broadcast ctx (W.Gc_init (tag, v)) else R.silent_round ctx
    in
    let b = Inbox.memo inbox b_key ~eq:same_params params first_round in
    (* Round 2: echo b if set. *)
    let second =
      match b with Some w when in_l -> [ W.Gc_echo (tag, w) ] | Some _ | None -> []
    in
    let inbox' = R.broadcast_list ctx second in
    match Inbox.memo inbox' outcome_key ~eq:same_round2 (params, b) second_round with
    | Some r -> r
    | None -> (v, 0)
end
