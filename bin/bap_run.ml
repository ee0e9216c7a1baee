(* CLI: run a single Byzantine-Agreement-with-predictions execution with
   chosen parameters and print its outcome (and, optionally, the full
   message trace).

   Examples:
     dune exec bin/bap_run.exe -- -n 31 -t 10 -f 5 --misclassified 4
     dune exec bin/bap_run.exe -- -n 21 -t 9 --auth --adversary splitter
     dune exec bin/bap_run.exe -- -n 10 -t 3 -f 2 --trace *)

module V = Bap_core.Value.Int
module Stack = Bap_core.Stack.Make (V)
module Adv = Bap_adversary.Strategies.Make (V) (Stack.W)
module Adversary = Bap_sim.Adversary
module Gen = Bap_prediction.Gen
module Quality = Bap_prediction.Quality
module Rng = Bap_sim.Rng
module Observer = Bap_monitor.Observer.Make (V) (Stack.W)
open Cmdliner

(* Every adversary by name. The infiltrator forges committee votes, so
   it needs the authenticated stack's PKI. *)
let adversaries =
  [
    ("passive", `Any (fun ~n:_ ~t:_ -> Adversary.passive));
    ("silent", `Any (fun ~n:_ ~t:_ -> Adversary.silent));
    ("equivocate", `Any (fun ~n:_ ~t:_ -> Adv.equivocate ~v0:0 ~v1:1));
    ("value-push", `Any (fun ~n:_ ~t:_ -> Adv.value_push ~v:1));
    ("advice-liar", `Any (fun ~n:_ ~t:_ -> Adv.advice_liar));
    ("liar-silent", `Any (fun ~n:_ ~t:_ -> Adv.advice_liar_then_silent));
    ("echo-chaos", `Any (fun ~n:_ ~t:_ -> Adv.echo_chaos ~v0:0 ~v1:1));
    ( "splitter",
      `Any
        (fun ~n ~t ->
          Adv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun r -> -1_000_000 - r)) );
    ("infiltrator", `Auth (fun pki -> Adv.committee_infiltrator ~pki ~v0:0 ~v1:1));
  ]

let run n t f misclassified budget placement adversary auth seed trace monitor
    value_prediction =
  match List.assoc adversary adversaries with
  | _ when f > t -> `Error (true, Printf.sprintf "-f %d exceeds -t %d" f t)
  | `Auth _ when not auth -> `Error (true, "--adversary " ^ adversary ^ " needs --auth")
  | pick ->
    let pick_adversary pki =
      match (pick, pki) with
      | `Any make, _ -> make ~n ~t
      | `Auth make, Some pki -> make pki
      | `Auth _, None -> assert false (* rejected above *)
    in
    let rng = Rng.create seed in
    let faulty = Array.init f Fun.id in
    let inputs = Array.init n (fun _ -> Rng.int rng 2) in
    let advice =
      match (misclassified, budget) with
      | 0, 0 -> Gen.perfect ~n ~faulty
      | 0, b -> Gen.generate ~rng ~n ~faulty ~budget:b placement
      | m, _ ->
        let per = max 1 (Bap_core.Classification.majority_threshold n - f) in
        Gen.generate ~rng ~n ~faulty ~budget:(m * per) (Gen.Targeted per)
    in
    let stats = Quality.measure ~n ~faulty advice in
    Fmt.pr "n=%d t=%d f=%d %a adversary=%s %s@." n t f Quality.pp_stats stats adversary
      (if auth then "[authenticated]" else "[unauthenticated]");
    let tr =
      if trace || monitor then Some (Bap_sim.Trace.create ~limit:5_000_000 ()) else None
    in
    let outcome =
      if auth then
        fst
          (Stack.run_auth ?trace:tr ~t ~faulty ~inputs ~advice
             ~adversary:(fun pki -> pick_adversary (Some pki))
             ())
      else
        Stack.run_unauth ?trace:tr ~t ~faulty ~inputs ~advice
          ?value_predictions:(Option.map (fun v -> Array.make n v) value_prediction)
          ~adversary:(pick_adversary None)
          ()
    in
    Fmt.pr "rounds=%d decided-round=%d honest-messages=%d adversary-messages=%d@."
      outcome.Stack.R.rounds (Stack.decision_round outcome) outcome.Stack.R.honest_sent
      outcome.Stack.R.adversary_sent;
    List.iter
      (fun (i, r) ->
        Fmt.pr "  p%-3d decided %d in round %d@." i r.Stack.Wrapper.value
          r.Stack.Wrapper.decided_round)
      (Stack.R.honest_decisions outcome);
    Fmt.pr "agreement=%b validity=%b@." (Stack.agreement outcome)
      (Stack.unanimous_validity ~inputs ~faulty outcome);
    (match tr with
    | Some tr when monitor ->
      let verdict = Observer.observe ~n tr in
      Fmt.pr "@.-- monitor verdict --@.";
      if verdict.Observer.evidence = [] then Fmt.pr "no behavioural evidence found@."
      else
        List.iter
          (fun (who, reason) -> Fmt.pr "process %d: %s@." who reason)
          verdict.Observer.evidence
    | _ -> ());
    (match tr with
    | Some tr when trace -> Fmt.pr "@.-- trace --@.%a@." (Bap_sim.Trace.pp Stack.W.pp) tr
    | _ -> ());
    `Ok ()

let cmd =
  let n = Arg.(value & opt int 13 & info [ "n" ] ~doc:"Number of processes.") in
  let t = Arg.(value & opt int 4 & info [ "t" ] ~doc:"Fault tolerance bound.") in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~doc:"Actual number of faulty processes (ids 0..f-1).") in
  let m =
    Arg.(
      value & opt int 0
      & info [ "misclassified" ] ~doc:"Target number of misclassified processes.")
  in
  let budget =
    Arg.(value & opt int 0 & info [ "budget" ] ~doc:"Raw advice error budget B.")
  in
  let placement =
    Arg.(
      value
      & opt
          (enum
             [
               ("uniform", Gen.Uniform);
               ("focused", Gen.Focused);
               ("scattered", Gen.Scattered);
               ("all-wrong", Gen.All_wrong);
             ])
          Gen.Uniform
      & info [ "placement" ] ~doc:"Error placement: uniform|focused|scattered|all-wrong.")
  in
  let adversary =
    let names = List.map fst adversaries in
    Arg.(
      value
      & opt (enum (List.map (fun name -> (name, name)) names)) "silent"
      & info [ "adversary" ] ~doc:(Printf.sprintf "One of: %s." (String.concat ", " names)))
  in
  let auth = Arg.(value & flag & info [ "auth" ] ~doc:"Use the authenticated stack.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full message trace.") in
  let monitor =
    Arg.(
      value & flag
      & info [ "monitor" ] ~doc:"Analyse the execution with the network-tap monitor.")
  in
  let value_prediction =
    Arg.(
      value
      & opt (some int) None
      & info [ "value-prediction" ]
          ~doc:"Give every process this predicted decision value (fast path; unauth only).")
  in
  Cmd.v
    (Cmd.info "bap_run" ~doc:"Run one Byzantine Agreement with Predictions execution")
    Term.(
      ret
        (const run $ n $ t $ f $ m $ budget $ placement $ adversary $ auth $ seed $ trace
       $ monitor $ value_prediction))

let () = exit (Cmd.eval cmd)
