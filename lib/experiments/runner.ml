(* Run the experiment suite (E1-E13 from DESIGN.md) through the
   execution engine (lib/exec). [quick] shrinks the sweeps to
   bench-friendly sizes; [pool] fans the cells out over domains and
   [journal] replays cells it already holds. Output is byte-identical
   whatever the pool size or journal state. *)

module Engine = Bap_exec.Engine
module Plan = Bap_exec.Plan

let all = [
  ("E1", "unauth rounds vs B (Thm 11)", E1_rounds_unauth.plan);
  ("E2", "auth rounds vs B (Thm 12)", E2_rounds_auth.plan);
  ("E3", "unauth messages vs n (Thm 11)", E3_messages_unauth.plan);
  ("E4", "auth messages vs n (Thm 12)", E4_messages_auth.plan);
  ("E5", "round lower bound (Thm 13)", E5_round_lb.plan);
  ("E6", "message lower bound (Thm 14)", E6_message_lb.plan);
  ("E7", "classification quality (Lemma 1)", E7_classification.plan);
  ("E8", "predictions vs baselines", E8_crossover.plan);
  ("E9", "classification-vote ablation", E9_voting_ablation.plan);
  ("E10", "communication complexity in bits", E10_communication.plan);
  ("E11", "learned advice across slots", E11_learned_advice.plan);
  ("E12", "value predictions (extension)", E12_value_predictions.plan);
  ("E13", "component ablation of Algorithm 1", E13_component_ablation.plan);
]

(* Under a supervisor, a quarantined cell is simply missing from the
   render input. The renderers themselves stay oblivious — this wrapper
   prints the explicit DEGRADED marker under any table that came up
   short, naming exactly the cells that were lost. *)
let wrap_degraded (p : Plan.t) =
  let render keyed =
    p.render keyed;
    let present = List.map fst keyed in
    let missing =
      List.filter (fun k -> not (List.mem k present)) (Plan.keys p)
    in
    Bap_stats.Table.print_degraded ~exp_id:p.exp_id ~quarantined:missing
  in
  { p with render }

(* The canonical id of experiment [id], matched case-insensitively. *)
let find_id id =
  List.find_map
    (fun (eid, _, _) ->
      if String.lowercase_ascii eid = String.lowercase_ascii id then Some eid
      else None)
    all

(* Every experiment's plan, or only the one whose canonical id is
   [only]. *)
let plans ?quick ?only () =
  List.filter_map
    (fun (id, _, plan) ->
      match only with
      | Some o when o <> id -> None
      | _ -> Some (wrap_degraded (plan ?quick ())))
    all

let run ?quick ?only ?pool ?journal ?supervisor ?render () =
  Engine.run ?pool ?journal ?supervisor ?render (plans ?quick ?only ())
