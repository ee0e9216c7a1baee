(* Scale probe: run one wrapper instance at large n through the
   scalable core and report wall-clock + accounting. CI's scale-smoke
   job runs this at n=2000 under a timeout; developers use it to
   measure the n-scaling curve locally. Exits non-zero if the run
   fails to decide or to agree, so CI fails loud.

   The workload is the unauthenticated stack with perfect advice and
   [f] silent faults — the configuration whose counted-path cost is
   dominated by the protocol itself rather than by per-pair adversary
   calls, i.e. the scaling regime the paper's message-complexity claims
   are about. *)

module V = Bap_core.Value.Int
module S = Bap_core.Stack.Make (V)
module Gen = Bap_prediction.Gen
module Rng = Bap_sim.Rng

let run n f mode json =
  let t = (n - 1) / 3 in
  let f = min f t in
  let rng = Rng.create ((17 * n) + f) in
  let faulty = Array.of_list (Rng.sample_without_replacement rng f n) in
  let advice = Gen.perfect ~n ~faulty in
  let inputs = Array.init n (fun i -> i mod 2) in
  let t0 = Unix.gettimeofday () in
  let o =
    S.run_unauth ~mode ~adversary:Bap_sim.Adversary.silent ~t ~faulty ~inputs ~advice ()
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let rounds = o.S.R.rounds and msgs = o.S.R.honest_sent and bits = o.S.R.honest_bits in
  let agreement = S.agreement o in
  let decided = List.length (S.R.honest_decisions o) = n - f in
  if json then
    Printf.printf
      "{\"n\": %d, \"f\": %d, \"rounds\": %d, \"msgs\": %d, \"bits\": %d, \
       \"agreement\": %b, \"decided\": %b, \"wall_ms\": %.1f}\n"
      n f rounds msgs bits agreement decided wall_ms
  else
    Printf.printf
      "bap_scale: n=%d f=%d rounds=%d msgs=%d bits=%d agreement=%b decided=%b wall_ms=%.1f\n"
      n f rounds msgs bits agreement decided wall_ms;
  if agreement && decided then 0
  else (
    Printf.eprintf "bap_scale: FAILED (agreement=%b decided=%b)\n" agreement decided;
    1)

open Cmdliner

let n_arg =
  Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let f_arg =
  Arg.(
    value & opt int 0
    & info [ "f" ] ~docv:"F"
        ~doc:"Number of silent faulty processes (clamped to (n-1)/3).")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("counted", `Auto); ("concrete", `Concrete) ]) `Auto
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Engine selection: the counted fast path or the concrete \
              per-pair reference.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as one JSON object.")

let cmd =
  let doc = "time one large-n wrapper instance through the scalable core" in
  let info = Cmd.info "bap_scale" ~doc in
  Cmd.v info Term.(const run $ n_arg $ f_arg $ mode_arg $ json_arg)

let () = exit (Cmd.eval' cmd)
