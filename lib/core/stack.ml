(* One fully instantiated protocol stack per value domain.

   [Stack.Make (V)] fixes the wire format and the lock-step runtime for
   value type [V.t] and instantiates every protocol of the paper against
   them, together with one-call harnesses that run a complete execution
   (Algorithm 1 and its sub-protocols) under a chosen fault set,
   adversary, and advice. *)

module Advice = Bap_prediction.Advice
module Pki = Bap_crypto.Pki
module Adversary = Bap_sim.Adversary
module Trace = Bap_sim.Trace

module Make (V : Value.S) = struct
  module W = Wire.Make (V)
  module R = Bap_sim.Runtime.Make (W)
  module Classify_p = Classify.Make (W) (R)
  module Graded_unauth = Graded_unauth.Make (V) (W) (R)
  module Graded_auth = Graded_auth.Make (V) (W) (R)
  module Graded_core_set = Graded_core_set.Make (V) (W) (R)
  module Conciliate = Conciliate.Make (V) (W) (R)
  module Ba_class_unauth = Ba_class_unauth.Make (V) (W) (R)
  module Bb_committee = Bb_committee.Make (V) (W) (R)
  module Ba_class_auth = Ba_class_auth.Make (V) (W) (R)
  module Early_stopping = Early_stopping.Make (V) (W) (R)
  module Wrapper = Wrapper.Make (V) (W) (R)

  (* -- Wrapper configurations -- *)

  let unauth_config ~t : Wrapper.config =
    {
      classify = Classify_p.run;
      gc = (fun ctx ~tag v -> Graded_unauth.run ctx ~t ~tag v);
      gc_rounds = Graded_unauth.rounds;
      bc = (fun ctx ~k ~base_tag v c -> Ba_class_unauth.run ctx ~t ~k ~base_tag v c);
      bc_rounds = (fun ~k -> Ba_class_unauth.rounds ~k);
      bc_tags = (fun ~k -> 3 * ((2 * k) + 1));
      ablate_es = false;
      ablate_bc = false;
    }

  let auth_config ?memo ~pki ~key ~t () : Wrapper.config =
    {
      classify = Classify_p.run;
      gc = (fun ctx ~tag v -> Graded_auth.run ?memo ctx ~pki ~key ~t ~tag v);
      gc_rounds = Graded_auth.rounds;
      bc =
        (fun ctx ~k ~base_tag v c ->
          Ba_class_auth.run ?memo ctx ~pki ~key ~t ~k ~base_tag v c);
      bc_rounds = (fun ~k -> Ba_class_auth.rounds ~k);
      bc_tags = (fun ~k:_ -> 3);
      ablate_es = false;
      ablate_bc = false;
    }

  (* Ablation: skip the classification vote and trust the raw advice
     (still consuming the round so the schedule is unchanged). *)
  let no_vote_classify ctx advice =
    ignore (R.silent_round ctx);
    advice

  let unauth_config_no_vote ~t =
    { (unauth_config ~t) with Wrapper.classify = no_vote_classify }

  (* -- One-call execution harnesses -- *)

  let check_args ~t ~faulty ~inputs ~advice =
    let n = Array.length inputs in
    if Array.length advice <> n then invalid_arg "Stack: advice length <> inputs length";
    if Array.length faulty > t then invalid_arg "Stack: more faulty processes than t";
    n

  (* Identical signature-free broadcasts group by the wire's own
     equality, without building their bytes. *)
  let grouping = Bap_sim.Runtime.Grouping { key = W.plain; hash = W.hash; equal = W.equal }

  let run_unauth ?(adversary = Adversary.passive) ?trace ?max_rounds ?network ?on_round
      ?mode ?config ?value_predictions ~t ~faulty ~inputs ~advice () :
      V.t Wrapper.result R.outcome =
    let n = check_args ~t ~faulty ~inputs ~advice in
    let config = Option.value config ~default:(unauth_config ~t) in
    R.run ?max_rounds ?trace ?network ?on_round ?mode ~msg_size:W.size_bits ~grouping ~n
      ~faulty ~adversary (fun ctx ->
        let i = R.id ctx in
        let value_prediction =
          Option.map (fun (preds : V.t array) -> preds.(i)) value_predictions
        in
        Wrapper.run ?value_prediction config ctx ~t inputs.(i) advice.(i))

  let run_auth ?adversary ?trace ?max_rounds ?network ?on_round ?mode ?value_predictions
      ~t ~faulty ~inputs ~advice () : V.t Wrapper.result R.outcome * Pki.t =
    let n = check_args ~t ~faulty ~inputs ~advice in
    let pki = Pki.create ~n in
    (* One validation memo per execution, shared by all n processes and
       never handed to the adversary. *)
    let memo = W.memo pki in
    let adversary =
      match adversary with Some make -> make pki | None -> Adversary.passive
    in
    let outcome =
      R.run ?max_rounds ?trace ?network ?on_round ?mode ~msg_size:W.size_bits ~grouping
        ~n ~faulty ~adversary (fun ctx ->
          let i = R.id ctx in
          let key = Pki.key pki i in
          let value_prediction =
            Option.map (fun (preds : V.t array) -> preds.(i)) value_predictions
          in
          Wrapper.run ?value_prediction (auth_config ~memo ~pki ~key ~t ()) ctx ~t inputs.(i)
            advice.(i))
    in
    (outcome, pki)

  (* -- Metric helpers -- *)

  let agreement outcome =
    match R.honest_decisions outcome with
    | [] -> true
    | (_, r) :: rest ->
      List.for_all (fun (_, r') -> V.equal r.Wrapper.value r'.Wrapper.value) rest

  let decision_round outcome =
    (* The paper's time complexity: the round by which the last honest
       process has fixed its decision. *)
    List.fold_left
      (fun acc (_, r) -> max acc r.Wrapper.decided_round)
      0
      (R.honest_decisions outcome)

  let unanimous_validity ~inputs ~faulty outcome =
    let is_faulty = Array.make (Array.length inputs) false in
    Array.iter (fun j -> is_faulty.(j) <- true) faulty;
    let honest_inputs =
      Array.to_list inputs
      |> List.filteri (fun i _ -> not is_faulty.(i))
      |> List.sort_uniq V.compare
    in
    match honest_inputs with
    | [ v ] ->
      List.for_all
        (fun (_, r) -> V.equal v r.Wrapper.value)
        (R.honest_decisions outcome)
    | _ -> true

  (* Attribute per-round honest message counts to wrapper components
     using the deterministic schedule. *)
  let messages_by_component ?value_prediction cfg ~t (outcome : _ R.outcome) =
    let sched = Wrapper.schedule ?value_prediction cfg ~t in
    let totals = Hashtbl.create 8 in
    Array.iteri
      (fun idx count ->
        let round = idx + 1 in
        let label =
          match
            List.find_opt (fun (_, _, first, last) -> round >= first && round <= last) sched
          with
          | Some (label, _, _, _) -> label
          | None -> "other"
        in
        Hashtbl.replace totals label
          (count + Option.value (Hashtbl.find_opt totals label) ~default:0))
      outcome.R.honest_per_round;
    Hashtbl.fold (fun label count acc -> (label, count) :: acc) totals []
    |> List.sort compare
end
