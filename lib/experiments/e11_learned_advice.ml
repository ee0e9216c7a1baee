(* E11 (the paper's motivating feedback loop, made executable):
   repeated agreement slots over the same cluster, with the network-tap
   monitor of [Bap_monitor] turning each slot's observed misbehaviour
   into the next slot's predictions. Slot 1 starts with no information
   (everyone predicted honest: B = f * (n - f)); every slot in which the
   adversary acts detectably improves the advice and speeds up the
   following slots.

   The slots form one causal chain (slot k's evidence feeds slot k+1),
   so the whole experiment is a single cell rather than one per slot. *)

open Common
module Repeated = Bap_monitor.Repeated.Make (Bap_core.Value.Int)

let slots = 4

let plan ?(quick = false) () =
  let n = if quick then 31 else 61 in
  let t = (n - 1) / 3 in
  let f = t in
  let cells =
    [
      Plan.cell "slots" (fun () ->
          let faulty = Array.init f Fun.id in
          let rng = Rng.create 77 in
          let inputs = Array.init n (fun _ -> Rng.int rng 2) in
          (* The strongest attacker in the library; the monitor catches the
             coalition members it mutes in mandatory broadcast rounds, so
             every slot shrinks the usable coalition. *)
          let module RAdv = Bap_adversary.Strategies.Make (Bap_core.Value.Int) (Repeated.S.W) in
          let adversary =
            RAdv.adaptive_splitter ~n_minus_t:(n - t) ~junk:(fun r -> -1_000_000 - r)
          in
          let results = Repeated.run_slots ~slots ~t ~faulty ~inputs ~adversary () in
          List.map
            (fun r ->
              [
                fi r.Repeated.slot;
                fi r.Repeated.b;
                fi r.Repeated.decided_round;
                fi r.Repeated.messages;
                fi (List.length r.Repeated.new_suspects);
                fi (List.length r.Repeated.suspected);
                (if r.Repeated.agreement then "yes" else "NO");
              ])
            results);
    ]
  in
  {
    Plan.exp_id = "E11";
    scope = Plan.scope_of_quick quick;
    cells;
    render =
      (fun results ->
        header
          (Printf.sprintf
             "E11  learned advice across %d agreement slots  (n=%d, t=f=%d, adaptive splitter)"
             slots n t);
        Table.print
          ~headers:
            [ "slot"; "B (going in)"; "decided"; "msgs"; "new suspects"; "total suspects"; "correct" ]
          (Plan.rows results);
        Printf.printf
          "\nDetectable misbehaviour is self-defeating: each slot's evidence improves\n\
           the next slot's predictions, so the decision time drops toward the\n\
           perfect-advice floor.\n");
  }
