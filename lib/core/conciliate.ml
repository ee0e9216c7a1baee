(* Algorithm 4: Conciliation with Core Set.

   One round: processes in their own L broadcast (value, L). Each
   process builds the "leader graph" on the senders it heard from, with
   an edge (y, z) whenever y is in the set L_z that z declared, computes
   for each z in L_i the minimum input among self-listening sources that
   reach z, and returns the plurality of these minima over its listening
   set.

   Agreement and strong unanimity (Lemmas 13-14) hold when every honest
   L_i contains only honest processes, |L_i| = 3k+1, and a core set G of
   >= 2k+1 honest processes lies in every honest L_i. *)

module Inbox = Bap_sim.Inbox

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) = struct
  let rounds = 1

  module Ps = Phase_span.Make (R)

  (* The leader-graph winner: the plurality of the minima over L, or
     [None] when that multiset is empty. *)
  let winner inbox (tag, l_set) =
    let received =
      Inbox.first inbox ~f:(function
        | W.Conc (tg, w, l) when tg = tag -> Some (w, l)
        | _ -> None)
    in
    (* T_i, the identifiers we heard from, as a table in ascending id
       order with each sender's value and declared set. Everything below
       indexes it by position, so the work is in |T_i| and the declared
       sets, not in n. An id outside [0, n) that a faulty sender
       declares is in no table, so it adds no edge. *)
    let ids = ref [] and entries = ref [] in
    Inbox.votes_iteri received ~f:(fun y entry ->
        ids := y :: !ids;
        entries := entry :: !entries);
    let ids = Array.of_list (List.rev !ids) and entries = Array.of_list (List.rev !entries) in
    let size = Array.length ids in
    let position y =
      let rec search lo hi =
        if lo > hi then -1
        else
          let mid = (lo + hi) / 2 in
          if ids.(mid) = y then mid
          else if ids.(mid) < y then search (mid + 1) hi
          else search lo (mid - 1)
      in
      search 0 (size - 1)
    in
    (* E_i: (y, z) with y in z's declared set. A source y qualifies if y
       listed itself (y in L_y). *)
    let predecessors =
      Array.mapi
        (fun u (_, l) ->
          List.filter_map
            (fun y ->
              let p = position y in
              if p >= 0 && p <> u then Some p else None)
            l)
        entries
    in
    (* Minimum input among the qualifying sources that reach z (z
       included), by reverse reachability; ties go to the smallest id.
       [visited] marks a position with the number of the search that
       reached it. *)
    let visited = Array.make size (-1) and searches = ref 0 in
    let m_of z =
      let search = !searches in
      incr searches;
      let best = ref None in
      let rec explore u =
        if visited.(u) <> search then begin
          visited.(u) <- search;
          (let w, l = entries.(u) in
           if List.mem ids.(u) l then
             match !best with
             | Some (b, bu) when (let c = V.compare w b in c > 0 || (c = 0 && bu < u)) -> ()
             | _ -> best := Some (w, u));
          List.iter explore predecessors.(u)
        end
      in
      explore z;
      Option.map fst !best
    in
    let minima =
      List.filter_map
        (fun z ->
          let p = position z in
          if p >= 0 then m_of p else None)
        l_set
    in
    (* Plurality over the multiset {m_i[j] | j in T_i inter L_i}; ties to
       the smallest value. *)
    let counted = Inbox.votes (Array.of_list (List.map Option.some minima)) in
    Option.map fst (Inbox.plurality counted ~compare:V.compare)

  (* The winner is a pure function of the inbox and (tag, L): on a
     shared inbox it runs once per round. Whether I am in L, and the
     fallback to my own input, stay outside the memo. *)
  let winner_key : (int * int list, V.t option) Inbox.key = Inbox.key ()

  let same_params (tag, l) (tag', l') =
    Int.equal tag tag' && (l == l' || List.equal Int.equal l l')

  let run ctx ~l_set ~tag v =
    Ps.run ctx "conciliate" @@ fun () ->
    let in_l = List.mem (R.id ctx) l_set in
    let inbox =
      if in_l then R.broadcast ctx (W.Conc (tag, v, l_set)) else R.silent_round ctx
    in
    match Inbox.memo inbox winner_key ~eq:same_params (tag, l_set) winner with
    | Some w -> w
    | None -> v
end
