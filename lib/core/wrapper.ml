(* Algorithm 1: Byzantine Agreement with Predictions - the high-level
   guess-and-double wrapper.

   After one classification round, the wrapper runs ceil(log2 t) + 1
   phases. Phase phi assumes k = 2^(phi-1) classification errors: it
   interleaves three graded consensus calls (protecting validity and
   detecting agreement) with a truncated early-stopping BA (wins when
   f <= k) and a conditional BA-with-classification (wins when at most k
   processes are misclassified). Every sub-protocol consumes a fixed,
   deterministic number of rounds, so honest processes stay in lock-step
   without any explicit timer.

   The wrapper is parametric in the three sub-protocols; Stack
   instantiates it once with the unauthenticated components (Theorem 11)
   and once with the authenticated ones (Theorem 12). *)

module Advice = Bap_prediction.Advice

module Make
    (V : Value.S)
    (W : Wire.S with type value = V.t)
    (R : Bap_sim.Runtime.S with type msg = W.t) =
struct
  module Classify_p = Classify.Make (W) (R)
  module Es = Early_stopping.Make (V) (W) (R)
  module Ps = Phase_span.Make (R)
  module Tel = Bap_telemetry.Telemetry

  type config = {
    classify : R.ctx -> Advice.t -> Advice.t;
        (** The classification step (normally Algorithm 2); must consume
            exactly one round. Replaceable for ablation studies (e.g.
            trusting the raw advice without the vote). *)
    gc : R.ctx -> tag:W.tag -> V.t -> V.t * int;
    gc_rounds : int;
    bc : R.ctx -> k:int -> base_tag:W.tag -> V.t -> Advice.t -> V.t;
        (** The conditional BA with classification; must consume exactly
            [bc_rounds k] rounds and [bc_tags k] tags. *)
    bc_rounds : k:int -> int;
    bc_tags : k:int -> int;
    ablate_es : bool;
        (** Ablation switch: replace the early-stopping sub-protocol with
            silence of the same duration. Correctness is then conditional
            on the classification BA eventually succeeding - used by
            experiment E13 to show the interleaving is necessary. *)
    ablate_bc : bool;  (** Same for the conditional BA with classification. *)
  }

  let phases_total ~t =
    if t <= 1 then 1
    else begin
      (* ceil(log2 t) + 1 *)
      let rec go acc p = if p >= t then acc + 1 else go (acc + 1) (p * 2) in
      go 0 1
    end

  (* Phase phi (1-based) assumes k = 2^(phi - 1) errors, and budgets
     min (k + 1) (t + 1) phase-king phases for its early-stopping BA. *)
  let k_of_phase phi = 1 lsl (phi - 1)
  let es_phases ~t ~k = min (k + 1) (t + 1)

  (* Deterministic round layout: (component, phase, first, last) with
     1-based inclusive round numbers. Used by the experiment harness to
     attribute message counts to components. [value_prediction] adds the
     optional fast-path segment (see {!run}). *)
  let schedule ?(value_prediction = false) cfg ~t =
    let segments = ref [] in
    let now = ref 0 in
    let push label phi len =
      if len > 0 then begin
        segments := (label, phi, !now + 1, !now + len) :: !segments;
        now := !now + len
      end
    in
    push "classify" 0 Classify_p.rounds;
    if value_prediction then push "value-pred" 0 (2 * cfg.gc_rounds);
    for phi = 1 to phases_total ~t do
      let k = k_of_phase phi in
      push "gc" phi cfg.gc_rounds;
      push "es" phi (Es.rounds ~gc_rounds:cfg.gc_rounds ~phases:(es_phases ~t ~k));
      push "gc" phi cfg.gc_rounds;
      push "bc" phi (cfg.bc_rounds ~k);
      push "gc" phi cfg.gc_rounds
    done;
    List.rev !segments

  let rounds ?value_prediction cfg ~t =
    List.fold_left
      (fun acc (_, _, _, last) -> max acc last)
      0
      (schedule ?value_prediction cfg ~t)

  type 'v result = {
    value : 'v;
    decided_round : int;
        (** Round in which the decision became fixed (the paper's time
            complexity counts up to this point; the process keeps helping
            for one more phase before its function returns). *)
  }

  (* [value_prediction] is an extension beyond the paper (its conclusion
     asks about other prediction types): each process may additionally
     receive a {e predicted decision value}. After classification, a
     fast path runs one graded consensus on the inputs (protecting
     strong unanimity), adopts the predicted value on grade 0, and
     checks for agreement with a second graded consensus. When the value
     predictions are accurate and shared, every honest process decides
     within O(1) rounds even from split inputs; when they are garbage,
     the cost is a constant two graded-consensus calls and the regular
     phases proceed unchanged. Correctness is inherited from the same
     argument as the wrapper's phases: the fast path only fixes a
     decision through a grade-1 graded consensus, whose coherence makes
     every honest process carry the same value into phase 1. *)
  let run ?value_prediction cfg ctx ~t x advice =
    Ps.run ctx "wrapper" ~attrs:(fun () -> [ ("t", Tel.Int t) ]) @@ fun () ->
    let c = cfg.classify ctx advice in
    let v = ref x in
    let decision = ref None in
    let decided_round = ref 0 in
    let result = ref None in
    let next_tag = ref 0 in
    let fresh count =
      let tag = !next_tag in
      next_tag := tag + count;
      tag
    in
    (match value_prediction with
    | None -> ()
    | Some predicted ->
      Ps.run ctx "value-pred" (fun () ->
          let v1, g1 = cfg.gc ctx ~tag:(fresh 1) !v in
          v := if g1 = 0 then predicted else v1;
          let v2, g2 = cfg.gc ctx ~tag:(fresh 1) !v in
          v := v2;
          if g2 = 1 then begin
            decision := Some !v;
            decided_round := R.round ctx
          end));
    (try
       for phi = 1 to phases_total ~t do
         Ps.run ctx "phase"
           ~attrs:(fun () -> [ ("phi", Tel.Int phi); ("k", Tel.Int (k_of_phase phi)) ])
         @@ fun () ->
         let k = k_of_phase phi in
         let v1, g1 = cfg.gc ctx ~tag:(fresh 1) !v in
         v := v1;
         let phases = es_phases ~t ~k in
         if cfg.ablate_es then begin
           ignore (fresh (Es.tags_used ~phases));
           R.skip ctx (Es.rounds ~gc_rounds:cfg.gc_rounds ~phases)
         end
         else begin
           let es_result =
             Es.run ctx ~gc:cfg.gc ~gc_rounds:cfg.gc_rounds ~phases
               ~base_tag:(fresh (Es.tags_used ~phases))
               !v
           in
           if g1 = 0 then v := es_result.Es.value
         end;
         let v2, g2 = cfg.gc ctx ~tag:(fresh 1) !v in
         v := v2;
         if cfg.ablate_bc then begin
           ignore (fresh (cfg.bc_tags ~k));
           R.skip ctx (cfg.bc_rounds ~k)
         end
         else begin
           let v'' = cfg.bc ctx ~k ~base_tag:(fresh (cfg.bc_tags ~k)) !v c in
           if g2 = 0 then v := v''
         end;
         let v3, g3 = cfg.gc ctx ~tag:(fresh 1) !v in
         v := v3;
         (match !decision with
         | Some d ->
           result := Some d;
           raise Exit
         | None -> ());
         if g3 = 1 then begin
           decision := Some !v;
           decided_round := R.round ctx
         end
       done;
       result :=
         (match !decision with
         | Some d -> Some d
         | None ->
           decided_round := R.round ctx;
           Some !v)
     with Exit -> ());
    { value = Option.get !result; decided_round = !decided_round }
end
