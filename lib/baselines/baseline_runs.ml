(* One-call harnesses for the no-prediction baselines, used by the
   examples and the experiment sweeps as comparison points:

   - early-stopping phase king  (O(f) rounds; the paper's status quo),
   - plain phase king           (always Theta(t) rounds),
   - Dolev-Strong agreement     (authenticated, always t+1 rounds).

   Each harness instantiates its own protocol stack and returns a plain
   summary record, so callers never mix runtime instances. The two
   phase-king harnesses pass [on_round], the runtime's once-per-round
   hook, through. *)

module Adversary = Bap_sim.Adversary
module Pki = Bap_crypto.Pki
module Value = Bap_core.Value

module Make (V : Value.S) = struct
  module S = Bap_core.Stack.Make (V)
  module Ds = Dolev_strong.Make (V) (S.W) (S.R)
  module Pk = Phase_king.Make (V) (S.W) (S.R)

  type summary = {
    rounds : int;  (** Rounds until the last honest process returned. *)
    decided_round : int;
        (** Rounds until the last honest decision was fixed (equals
            [rounds] for protocols without early stopping). *)
    messages : int;  (** Honest messages sent. *)
    agreement : bool;
    validity : bool;  (** Strong unanimity when honest inputs agree. *)
    decisions : (int * V.t) list;
  }

  let summarize ~inputs ~faulty (outcome : _ S.R.outcome) ~decision_of ~decided_round_of =
    let decisions =
      List.map (fun (i, r) -> (i, decision_of r)) (S.R.honest_decisions outcome)
    in
    let agreement =
      match decisions with
      | [] -> true
      | (_, v) :: rest -> List.for_all (fun (_, w) -> V.equal v w) rest
    in
    let is_faulty = Array.make (Array.length inputs) false in
    Array.iter (fun j -> is_faulty.(j) <- true) faulty;
    let honest_inputs =
      Array.to_list inputs
      |> List.filteri (fun i _ -> not is_faulty.(i))
      |> List.sort_uniq V.compare
    in
    let validity =
      match honest_inputs with
      | [ v ] -> List.for_all (fun (_, w) -> V.equal v w) decisions
      | _ -> true
    in
    let decided_round =
      List.fold_left
        (fun acc (_, r) -> max acc (decided_round_of r))
        0
        (S.R.honest_decisions outcome)
    in
    {
      rounds = outcome.S.R.rounds;
      decided_round;
      messages = outcome.S.R.honest_sent;
      agreement;
      validity;
      decisions;
    }

  let run_early_stopping ?(adversary = Adversary.passive) ?max_rounds ?on_round ~t ~faulty
      ~inputs () =
    let n = Array.length inputs in
    let outcome =
      S.R.run ?max_rounds ?on_round ~n ~faulty ~adversary (fun ctx ->
          let gc c ~tag v = S.Graded_unauth.run c ~t ~tag v in
          S.Early_stopping.run ctx ~gc ~gc_rounds:S.Graded_unauth.rounds ~phases:(t + 1)
            ~base_tag:0
            inputs.(S.R.id ctx))
    in
    summarize ~inputs ~faulty outcome
      ~decision_of:(fun r -> r.S.Early_stopping.value)
      ~decided_round_of:(fun r ->
        if r.S.Early_stopping.decided_round = 0 then outcome.S.R.rounds
        else r.S.Early_stopping.decided_round)

  let run_phase_king ?(adversary = Adversary.passive) ?max_rounds ?on_round ~t ~faulty
      ~inputs () =
    let n = Array.length inputs in
    let outcome =
      S.R.run ?max_rounds ?on_round ~n ~faulty ~adversary (fun ctx ->
          let gc c ~tag v = S.Graded_unauth.run c ~t ~tag v in
          Pk.run ctx ~gc ~t ~base_tag:0 inputs.(S.R.id ctx))
    in
    summarize ~inputs ~faulty outcome ~decision_of:Fun.id
      ~decided_round_of:(fun _ -> outcome.S.R.rounds)

  (* Interactive consistency: every honest process ends with the same
     vector, whose honest slots hold the true inputs. *)
  let run_interactive_consistency ?adversary ?max_rounds ~t ~faulty ~inputs () =
    let n = Array.length inputs in
    let pki = Pki.create ~n in
    let adversary =
      match adversary with Some make -> make pki | None -> Adversary.passive
    in
    let outcome =
      S.R.run ?max_rounds ~n ~faulty ~adversary (fun ctx ->
          let key = Pki.key pki (S.R.id ctx) in
          Ds.interactive_consistency ctx ~pki ~key ~t ~tag:0 inputs.(S.R.id ctx))
    in
    S.R.honest_decisions outcome

  let run_dolev_strong ?adversary ?max_rounds ~t ~faulty ~inputs () =
    let n = Array.length inputs in
    let pki = Pki.create ~n in
    let adversary =
      match adversary with Some make -> make pki | None -> Adversary.passive
    in
    let outcome =
      S.R.run ?max_rounds ~n ~faulty ~adversary (fun ctx ->
          let key = Pki.key pki (S.R.id ctx) in
          Ds.agree ctx ~pki ~key ~t ~tag:0 inputs.(S.R.id ctx))
    in
    summarize ~inputs ~faulty outcome ~decision_of:Fun.id
      ~decided_round_of:(fun _ -> outcome.S.R.rounds)
end
