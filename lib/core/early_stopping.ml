(* Early-stopping phase-king Byzantine agreement (the paper's
   ba-early-stopping black box, Theorems 9/10).

   The protocol is parametric in a graded-consensus implementation, so
   one module serves both stacks: with the unauthenticated GC it is the
   t < n/3 protocol of Theorem 9, with the authenticated GC the t < n/2
   protocol of Theorem 10.

   Phase p (kings rotate over identifiers p-1 = 0, 1, 2, ...):
     (v, g1) <- gc(v);  king broadcasts v;  if g1 = 0 adopt the king's
     value;  (v, g2) <- gc(v);  if already decided, stop helping (exit);
     if g2 = 1, decide v.

   - Strong unanimity: with unanimous input v, every gc returns (v, 1)
     and king values are ignored.
   - Agreement: in the first phase with an honest king, either some
     honest process left gc-1 with grade 1 on v - then by coherence the
     king holds v and every grade-0 process adopts v - or all adopt the
     king's value; either way the phase ends unanimous and everyone
     decides in it. Hence agreement holds whenever phases >= f + 1.
   - The paper's [32] achieves O(n^2) total messages via recursion; this
     implementation spends O(n^2) per phase, which the experiments
     report separately (see DESIGN.md).

   Every run consumes exactly [rounds] rounds; early deciders pad. *)

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) = struct
  type 'v result = { value : 'v; decided_round : int }
  type gc = R.ctx -> tag:W.tag -> V.t -> V.t * int

  let rounds ~gc_rounds ~phases = phases * ((2 * gc_rounds) + 1)
  let tags_used ~phases = 3 * phases

  module Ps = Phase_span.Make (R)

  let run ctx ~gc ~gc_rounds ~phases ~base_tag x =
    Ps.run ctx "es" @@ fun () ->
    let n = R.n ctx in
    let me = R.id ctx in
    let v = ref x in
    let decision = ref None in
    let decided_round = ref 0 in
    let result = ref None in
    let rounds_spent = ref 0 in
    (try
       for p = 1 to phases do
         let tag = base_tag + (3 * (p - 1)) in
         let king = (p - 1) mod n in
         let v1, g1 = gc ctx ~tag !v in
         v := v1;
         let inbox =
           if me = king then R.broadcast ctx (W.King (tag + 1, !v)) else R.silent_round ctx
         in
         let king_value =
           List.find_map
             (function W.King (tg, w) when tg = tag + 1 -> Some w | _ -> None)
             (Bap_sim.Inbox.get inbox king)
         in
         if g1 = 0 then v := Option.value king_value ~default:!v;
         let v2, g2 = gc ctx ~tag:(tag + 2) !v in
         v := v2;
         rounds_spent := !rounds_spent + (2 * gc_rounds) + 1;
         (match !decision with
         | Some d ->
           result := Some d;
           raise Exit
         | None -> ());
         if g2 = 1 then begin
           decision := Some !v;
           decided_round := R.round ctx
         end
       done;
       result := (match !decision with Some d -> Some d | None -> Some !v)
     with Exit -> ());
    R.skip ctx (rounds ~gc_rounds ~phases - !rounds_spent);
    { value = Option.get !result; decided_round = !decided_round }
end
