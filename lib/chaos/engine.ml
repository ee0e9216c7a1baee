(* One chaos execution: a protocol, a system configuration, and a fault
   schedule in; a safety verdict out.

   The engine compiles the schedule into the adversary + network-hook
   pair (see {!Injector}), runs the chosen protocol under a delivery
   trace, and passes every observable through the {!Oracle}. Exceptions
   escaping protocol code and round-limit overruns are caught and
   reported as violations rather than crashing the campaign — a fuzzer
   must survive what it finds. *)

module Advice = Bap_prediction.Advice
module Pki = Bap_crypto.Pki
module Trace = Bap_sim.Trace

module Make (V : Bap_core.Value.S) = struct
  module S = Bap_core.Stack.Make (V)
  module Injector = Injector.Make (V) (S.W)
  module Oracle = Oracle.Make (V) (S.W)
  module Pk = Bap_baselines.Phase_king.Make (V) (S.W) (S.R)

  type protocol = Unauth | Auth | Es_baseline | Pk_baseline

  let protocol_name = function
    | Unauth -> "unauth"
    | Auth -> "auth"
    | Es_baseline -> "es"
    | Pk_baseline -> "pk"

  type config = {
    protocol : protocol;
    t : int;
    faulty : int array;
    inputs : V.t array;  (** Length [n]. *)
    advice : Advice.t array;  (** Per-process; ignored by the baselines. *)
    schedule : Schedule.t;
  }

  let n_of cfg = Array.length cfg.inputs

  (* The deterministic worst-case round count of each protocol: every
     implementation in this repository runs a fixed schedule (early
     deciders pad with silent rounds), so exceeding this bound is a
     safety violation, not a slow run. *)
  let round_bound cfg =
    match cfg.protocol with
    | Unauth -> S.Wrapper.rounds (S.unauth_config ~t:cfg.t) ~t:cfg.t
    | Auth ->
      (* Only the round-arithmetic fields of the config are read. *)
      let pki = Pki.create ~n:1 in
      S.Wrapper.rounds (S.auth_config ~pki ~key:(Pki.key pki 0) ~t:cfg.t ()) ~t:cfg.t
    | Es_baseline ->
      S.Early_stopping.rounds ~gc_rounds:S.Graded_unauth.rounds ~phases:(cfg.t + 1)
    | Pk_baseline -> Pk.rounds ~gc_rounds:S.Graded_unauth.rounds ~t:cfg.t

  type report = {
    violations : Oracle.violation list;
    rounds : int;
    decisions : (int * V.t) list;  (** Honest decisions, ascending id. *)
  }

  let has_equivocation schedule =
    List.exists (function Schedule.Equivocate _ -> true | _ -> false) schedule

  (* [sabotage_validity] is a self-test of the harness, reachable from
     [bap_fuzz --self-test]: it simulates a protocol whose validity
     protection is broken by tampering with the first honest decision
     whenever the schedule contains an equivocation fault. The oracles
     must then fire and the shrinker must reduce the schedule to (about)
     that single fault — proving the detection pipeline is live, not
     vacuously green. *)
  let sabotage ~mutant cfg decisions =
    if not (has_equivocation cfg.schedule) then decisions
    else
      match decisions with
      | (i, v) :: rest -> (i, mutant 1 v) :: rest
      | [] -> []

  let run ?(sabotage_validity = false) ?(with_trace = true) ~mutant cfg =
    let n = n_of cfg in
    let t = cfg.t in
    let bound = round_bound cfg in
    let adversary = Injector.adversary ~mutant cfg.schedule in
    let network = Injector.network cfg.schedule in
    (* Without a trace (and without a network-side fault) the runtime
       takes its counted fast path and the monitor oracle is skipped:
       the decision-level oracles (agreement/validity/termination) still
       run. The model checker uses this to afford exhaustive
       enumeration; the fuzzer keeps the full-observer default. *)
    let trace = if with_trace then Some (Trace.create ~limit:2_000_000 ()) else None in
    let max_rounds = bound + 5 in
    let outcome =
      try
        Ok
          (match cfg.protocol with
          | Unauth ->
            let o =
              S.run_unauth ~adversary ?trace ~max_rounds ?network ~t ~faulty:cfg.faulty
                ~inputs:cfg.inputs ~advice:cfg.advice ()
            in
            ( List.map (fun (i, r) -> (i, r.S.Wrapper.value)) (S.R.honest_decisions o),
              o.S.R.rounds )
          | Auth ->
            let o, _pki =
              S.run_auth
                ~adversary:(fun _pki -> adversary)
                ?trace ~max_rounds ?network ~t ~faulty:cfg.faulty ~inputs:cfg.inputs
                ~advice:cfg.advice ()
            in
            ( List.map (fun (i, r) -> (i, r.S.Wrapper.value)) (S.R.honest_decisions o),
              o.S.R.rounds )
          | Es_baseline ->
            let o =
              S.R.run ~max_rounds ?trace ?network ~n ~faulty:cfg.faulty ~adversary
                (fun ctx ->
                  let gc c ~tag v = S.Graded_unauth.run c ~t ~tag v in
                  S.Early_stopping.run ctx ~gc ~gc_rounds:S.Graded_unauth.rounds
                    ~phases:(t + 1) ~base_tag:0
                    cfg.inputs.(S.R.id ctx))
            in
            ( List.map
                (fun (i, r) -> (i, r.S.Early_stopping.value))
                (S.R.honest_decisions o),
              o.S.R.rounds )
          | Pk_baseline ->
            let o =
              S.R.run ~max_rounds ?trace ?network ~n ~faulty:cfg.faulty ~adversary
                (fun ctx ->
                  let gc c ~tag v = S.Graded_unauth.run c ~t ~tag v in
                  Pk.run ctx ~gc ~t ~base_tag:0 cfg.inputs.(S.R.id ctx))
            in
            (S.R.honest_decisions o, o.S.R.rounds))
      with
      | S.R.Round_limit_exceeded r -> Error (Oracle.Termination { rounds = r; bound })
      | exn -> Error (Oracle.Crash { exn = Printexc.to_string exn })
    in
    match outcome with
    | Error v -> { violations = [ v ]; rounds = 0; decisions = [] }
    | Ok (decisions, rounds) ->
      let decisions =
        if sabotage_validity then sabotage ~mutant cfg decisions else decisions
      in
      let violations =
        Oracle.check ~n ~faulty:cfg.faulty ~inputs:cfg.inputs ~bound ~rounds ~decisions
          trace
      in
      { violations; rounds; decisions }

  let pp_config ppf cfg =
    Fmt.pf ppf "@[<v>protocol=%s n=%d t=%d faulty=[%a]@,inputs=[%a]@,advice=[%a]@]"
      (protocol_name cfg.protocol) (n_of cfg) cfg.t
      Fmt.(array ~sep:(any ";") int)
      cfg.faulty
      Fmt.(array ~sep:(any ";") V.pp)
      cfg.inputs
      Fmt.(array ~sep:(any " ") Advice.pp)
      cfg.advice

  let pp_report ppf r =
    Fmt.pf ppf "@[<v>rounds=%d decisions=[%a]@,%a@]" r.rounds
      Fmt.(list ~sep:(any ";") (pair ~sep:(any ":") int V.pp))
      r.decisions
      Fmt.(list ~sep:cut Oracle.pp_violation)
      r.violations
end
