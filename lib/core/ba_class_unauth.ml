(* Algorithm 5: Unauthenticated Byzantine Agreement with Classification.

   2k+1 phases of 5 rounds each (graded consensus, conciliation, graded
   consensus). In phase phi, process i listens to the phi-th block of
   3k+1 identifiers of its ordering pi(c_i): predicted-honest identifiers
   first, predicted-faulty last.

   Guarantees (Theorem 5): if k bounds the number of misclassified
   processes and (2k+1)(3k+1) <= n - t - k, agreement and strong
   unanimity hold; every honest process decides within 5(2k+1) rounds and
   sends at most 5n messages, for O(n k^2) messages in total. Whatever
   the classification quality, the protocol consumes exactly [rounds k]
   rounds (early deciders pad with silent rounds), so it composes with
   the fixed-duration phases of Algorithm 1. *)

module Advice = Bap_prediction.Advice

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) = struct
  module Gc = Graded_core_set.Make (V) (W) (R)
  module Conc = Conciliate.Make (V) (W) (R)

  let phases k = (2 * k) + 1
  let rounds ~k = 5 * phases k

  let feasible ~n ~t ~k = ((2 * k) + 1) * ((3 * k) + 1) <= n - t - k

  let max_feasible_k ~n ~t =
    let rec grow k = if feasible ~n ~t ~k:(k + 1) then grow (k + 1) else k in
    if feasible ~n ~t ~k:0 then grow 0 else -1

  let block order ~k ~phi =
    (* 0-based positions (3k+1)(phi-1) .. (3k+1)phi - 1 of pi(c_i). *)
    let width = (3 * k) + 1 in
    let lo = width * (phi - 1) in
    List.init width (fun j -> order.(lo + j))

  module Ps = Phase_span.Make (R)

  let run ctx ~t ~k ~base_tag x c =
    Ps.run ctx "bc" @@ fun () ->
    if not (feasible ~n:(R.n ctx) ~t ~k) then begin
      (* The side condition is common knowledge (it only depends on n, t
         and k), so all honest processes skip together: they spend the
         protocol's round budget silently and return their input. The
         wrapper's graded consensus protects correctness in this case. *)
      R.skip ctx (rounds ~k);
      x
    end
    else begin
    let order = Classification.pi_prefix c (phases k * ((3 * k) + 1)) in
    let v = ref x in
    let decision = ref None in
    let result = ref None in
    let rounds_spent = ref 0 in
    (try
       for phi = 1 to phases k do
         let l_set = block order ~k ~phi in
         let tag = base_tag + (3 * (phi - 1)) in
         let v1, g1 = Gc.run ctx ~k ~l_set ~tag !v in
         v := v1;
         let v' = Conc.run ctx ~l_set ~tag:(tag + 1) !v in
         if g1 = 0 then v := v';
         let v2, g2 = Gc.run ctx ~k ~l_set ~tag:(tag + 2) !v in
         v := v2;
         rounds_spent := !rounds_spent + 5;
         (match !decision with
         | Some d ->
           result := Some d;
           raise Exit
         | None -> ());
         if g2 = 1 then decision := Some !v
       done;
       result := (match !decision with Some d -> Some d | None -> Some !v)
     with Exit -> ());
    R.skip ctx (rounds ~k - !rounds_spent);
    Option.get !result
    end
end
