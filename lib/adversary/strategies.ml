(* Protocol-aware Byzantine strategies against the stack's wire format.

   Each strategy is a [Bap_sim.Adversary.t]; they compose with the
   generic ones (silent, crash, passive) from the simulator. All are
   rushing: they see the honest messages of the current round before
   choosing their own. *)

module Adversary = Bap_sim.Adversary
module Advice = Bap_prediction.Advice
module Pki = Bap_crypto.Pki
module Value = Bap_core.Value
module Wire = Bap_core.Wire

module Make (V : Value.S) (W : Wire.S with type value = V.t) = struct
  type t = W.t Adversary.t

  (* Replace the value of every value-carrying puppet message with a
     recipient-dependent value: the classic equivocation that splits
     threshold-counting protocols. *)
  let equivocate ~v0 ~v1 : t =
    let pick dst = if dst mod 2 = 0 then v0 else v1 in
    Adversary.rewrite "equivocate" (fun _view ~src:_ ~dst -> function
      | W.Gc_init (tg, _) -> [ W.Gc_init (tg, pick dst) ]
      | W.Gc_echo (tg, _) -> [ W.Gc_echo (tg, pick dst) ]
      | W.Conc (tg, _, l) -> [ W.Conc (tg, pick dst, l) ]
      | W.King (tg, _) -> [ W.King (tg, pick dst) ]
      | m -> [ m ])

  (* Always vote/echo a fixed value, trying to drag agreement to it
     (tests strong unanimity under pressure). *)
  let value_push ~v : t =
    {
      Adversary.name = "value-push";
      make =
        (fun ~n:_ ~faulty:_ _view ~src:_ ->
          Adversary.concat_map (function
            | W.Gc_init (tg, _) -> [ W.Gc_init (tg, v) ]
            | W.Gc_echo (tg, _) -> [ W.Gc_echo (tg, v) ]
            | W.Conc (tg, _, l) -> [ W.Conc (tg, v, l) ]
            | W.King (tg, _) -> [ W.King (tg, v) ]
            | m -> [ m ]));
    }

  (* The advice-round lie: every faulty process declared honest and every
     honest one faulty. *)
  let lie_about ~n ~faulty =
    let is_faulty = Array.make n false in
    Array.iter (fun j -> is_faulty.(j) <- true) faulty;
    let lie = Advice.init n (fun j -> is_faulty.(j)) in
    Adversary.concat_map (function W.Advice _ -> [ W.Advice lie ] | m -> [ m ])

  (* Lie in the classification round: claim every faulty process is
     honest and every honest process is faulty; behave normally
     otherwise. This maximises the damage of the voting phase given the
     faulty processes' free votes. *)
  let advice_liar : t =
    {
      Adversary.name = "advice-liar";
      make =
        (fun ~n ~faulty ->
          let lie = lie_about ~n ~faulty in
          fun _view ~src:_ -> lie);
    }

  (* Worst case for the classification machinery: lie maximally in the
     advice round, then deny all further participation. *)
  let advice_liar_then_silent : t =
    {
      Adversary.name = "advice-liar-then-silent";
      make =
        (fun ~n ~faulty ->
          let lie = lie_about ~n ~faulty in
          fun view ~src:_ outbox -> if view.Adversary.round = 1 then lie outbox else Adversary.mute);
    }

  (* The strongest generic attack on the wrapper: lie maximally in the
     advice round, then equivocate recipient-dependently in every value
     message. Combined with a fault set covering the first king slots,
     this forces the early-stopping component through f phases and keeps
     the conditional BA split while k is below the misclassification
     level. *)
  let prediction_attacker ~v0 ~v1 : t =
    {
      Adversary.name = "prediction-attacker";
      make =
        (fun ~n ~faulty ->
          let lie = lie_about ~n ~faulty in
          let pick dst = if dst mod 2 = 0 then v0 else v1 in
          let split ~dst = function
            | W.Gc_init (tg, _) -> [ W.Gc_init (tg, pick dst) ]
            | W.Gc_echo (tg, _) -> [ W.Gc_echo (tg, pick dst) ]
            | W.Conc (tg, _, l) ->
              (* Reveal a minimal value to half the processes only, so
                 the leader-graph minima diverge. *)
              if dst mod 2 = 0 then [ W.Conc (tg, v0, l) ] else []
            | W.King (tg, _) -> [ W.King (tg, pick dst) ]
            | m -> [ m ]
          in
          fun view ~src:_ ->
            if view.Adversary.round = 1 then lie else Adversary.per_recipient ~n split);
    }

  (* Authenticated-stack variant of {!prediction_attacker}: additionally
     equivocates inside the committee broadcasts (re-signing chain roots
     per recipient) and in the final announcements. *)
  let prediction_attacker_auth ~pki ~v0 ~v1 : t =
    {
      Adversary.name = "prediction-attacker-auth";
      make =
        (fun ~n ~faulty ->
          let keys = Hashtbl.create 8 in
          Array.iter (fun j -> Hashtbl.replace keys j (Pki.key pki j)) faulty;
          let lie = lie_about ~n ~faulty in
          let pick dst = if dst mod 2 = 0 then v0 else v1 in
          let split ~src ~dst = function
            | W.King _ -> []
            | W.Gcast_init (tg, sv) when sv.W.sv_dealer = src ->
              (* Deal a recipient-dependent value so no dealer quorum
                 can complete through this process. *)
              let key = Hashtbl.find keys src in
              let v = pick dst in
              let sv' =
                {
                  W.sv_dealer = src;
                  sv_value = v;
                  sv_sig = Pki.sign key (W.dealer_payload ~tag:tg ~dealer:src v);
                }
              in
              [ W.Gcast_init (tg, sv') ]
            | W.Bb_chain (tg, s, W.Chain_root { value = _; cert; link_sig = _ }) when s = src ->
              let key = Hashtbl.find keys src in
              let v = pick dst in
              let link_sig = Pki.sign key (W.chain_root_payload v cert) in
              [ W.Bb_chain (tg, s, W.Chain_root { value = v; cert; link_sig }) ]
            | W.Final_value (tg, _, cert) -> [ W.Final_value (tg, pick dst, cert) ]
            | m -> [ m ]
          in
          fun view ~src ->
            if view.Adversary.round = 1 then lie
            else Adversary.per_recipient ~n (split ~src));
    }

  (* The adaptive worst-case adversary for the unauthenticated stack.
     Being rushing, it counts the honest votes of the current round and
     chooses its own so that no graded-consensus threshold is ever
     crossed while the honest processes are still split:

     - advice round: lie maximally;
     - plain graded-consensus init rounds (all honest broadcast): vote
       for the minority value, but only with as many faulty processes as
       keeps every count below n - t;
     - graded-consensus echo rounds and king rounds: silence;
     - core-set rounds (few honest senders): silence, except that in
       conciliation rounds the faulty leaders reveal a junk value far
       below the honest domain to half the processes, which drags the
       leader-graph minima apart.

     The tally is the round's, made once in the view stage; only the
     conciliation reveal depends on the recipient, so a puppet outbox
     without one keeps its shape. *)
  let adaptive_splitter ~n_minus_t ~junk : t =
    (* [junk round] must be injective in [round] and below the honest
       value domain (w.r.t. V.compare). *)
    {
      Adversary.name = "adaptive-splitter";
      make =
        (fun ~n ~faulty ->
          let is_faulty = Array.make n false in
          Array.iter (fun j -> is_faulty.(j) <- true) faulty;
          let lie = lie_about ~n ~faulty in
          let rank = Hashtbl.create 8 in
          Array.iteri (fun idx j -> Hashtbl.replace rank j idx) faulty;
          let is_conc = function W.Conc _ -> true | _ -> false in
          fun view ->
            if view.Adversary.round = 1 then fun ~src:_ -> lie
            else begin
              (* Tally the honest Gc_init votes of this round. *)
              let votes = ref [] in
              let senders = ref 0 in
              for sender = 0 to n - 1 do
                if not is_faulty.(sender) then
                  List.iter
                    (function
                      | W.Gc_init (_, v) ->
                        incr senders;
                        votes :=
                          (match List.assoc_opt v !votes with
                          | Some c -> (v, c + 1) :: List.remove_assoc v !votes
                          | None -> (v, 1) :: !votes)
                      | _ -> ())
                    (view.Adversary.honest_out ~sender ~recipient:sender)
              done;
              let plain_gc = !senders >= n_minus_t in
              let minority =
                match List.sort (fun (_, a) (_, b) -> Int.compare a b) !votes with
                | (v, c) :: _ -> Some (v, c)
                | [] -> None
              in
              fun ~src outbox ->
                let common = function
                  | W.Gc_init (tg, _) when plain_gc -> (
                    match minority with
                    | Some (v, c) ->
                      let allowed = max 0 (n_minus_t - 1 - c) in
                      let r = Option.value (Hashtbl.find_opt rank src) ~default:0 in
                      if r < allowed then [ W.Gc_init (tg, v) ] else []
                    | None -> [])
                  | W.Gc_init _ -> []
                  | W.Gc_echo _ -> []
                  | W.King _ -> []
                  | m -> [ m ]
                in
                match outbox with
                | Adversary.Broadcast msgs when not (List.exists is_conc msgs) ->
                  Adversary.concat_map common outbox
                | Adversary.Broadcast _ | Adversary.Pairs _ ->
                  Adversary.per_recipient ~n
                    (fun ~dst -> function
                      | W.Conc (tg, _, _) ->
                        (* Reveal a fresh below-domain value to half the
                           processes, declaring only ourselves as leader
                           set: the receiving half adopts it through the
                           leader-graph minimum, the other half never sees
                           it. A fresh value per round prevents honest
                           carriers from re-unifying the halves later. *)
                        if dst mod 2 = 0 then [ W.Conc (tg, junk view.Adversary.round, [ src ]) ]
                        else []
                      | m -> common m)
                    outbox
            end);
    }

  (* Follow the protocol except in king rounds: a faulty king whose
     broadcast simply vanishes, the minimal attack on the rotating-king
     early stopping. *)
  let king_killer : t =
    {
      Adversary.name = "king-killer";
      make =
        (fun ~n:_ ~faulty:_ _view ~src:_ ->
          Adversary.concat_map (function W.King _ -> [] | m -> [ m ]));
    }

  (* Withhold committee votes (Algorithm 7's election round): honest
     processes that depend on faulty votes to reach the t+1 quorum are
     denied their certificates. *)
  let vote_withholder : t =
    {
      Adversary.name = "vote-withholder";
      make =
        (fun ~n:_ ~faulty:_ _view ~src:_ ->
          Adversary.concat_map (function W.Committee_vote _ -> [] | m -> [ m ]));
    }

  (* One-way partition: the faulty processes stop talking to a target
     set while behaving normally towards everyone else. *)
  let partition ~targets : t =
    { (Adversary.drop_to (fun dst -> List.mem dst targets)) with name = "partition" }

  (* Intermittent faults: follow the protocol on even rounds, stay
     silent on odd ones. *)
  let flip_flop : t =
    {
      Adversary.name = "flip-flop";
      make =
        (fun ~n:_ ~faulty:_ view ~src:_ outbox ->
          if view.Adversary.round mod 2 = 0 then outbox else Adversary.mute);
    }

  (* Scan the tags the honest processes are using this round and send
     conflicting values under the same tags, recipient-split, in place
     of the puppets' own messages. A generic attack on every quorum
     count in the unauthenticated stack. The pairs do not depend on the
     sender: they are built once per round. *)
  let echo_chaos ~v0 ~v1 : t =
    {
      Adversary.name = "echo-chaos";
      make =
        (fun ~n ~faulty:_ view ->
          let pick dst = if dst mod 2 = 0 then v0 else v1 in
          (* Collect the distinct (constructor, tag) shapes honest
             processes use this round, newest first. *)
          let shapes = ref [] in
          let note shape = if not (List.mem shape !shapes) then shapes := shape :: !shapes in
          for sender = 0 to n - 1 do
            (* Honest value messages are broadcasts, so sampling two
               recipients per sender sees every shape in use. *)
            List.iter
              (fun recipient ->
                List.iter
                  (fun m ->
                    match m with
                    | W.Gc_init (tg, _) -> note (`Init tg)
                    | W.Gc_echo (tg, _) -> note (`Echo tg)
                    | W.Conc (tg, _, l) -> note (`Conc (tg, l))
                    | W.King (tg, _) -> note (`King tg)
                    | _ -> ())
                  (view.Adversary.honest_out ~sender ~recipient))
              [ 0; min 1 (n - 1) ]
          done;
          let out =
            match List.rev !shapes with
            | [] -> Adversary.mute
            | shapes ->
              Adversary.Pairs
                (List.concat
                   (List.init n (fun dst ->
                        List.map
                          (fun shape ->
                            ( dst,
                              match shape with
                              | `Init tg -> W.Gc_init (tg, pick dst)
                              | `Echo tg -> W.Gc_echo (tg, pick dst)
                              | `Conc (tg, l) -> W.Conc (tg, pick dst, l)
                              | `King tg -> W.King (tg, pick dst) ))
                          shapes)))
          in
          fun ~src:_ _outbox -> out);
    }

  (* Crash failures staggered one per interval: the classic worst case
     for early-stopping protocols (each phase loses one more king). *)
  let staggered_crash ~interval : t =
    {
      Adversary.name = Printf.sprintf "staggered-crash-%d" interval;
      make =
        (fun ~n:_ ~faulty ->
          let index = Hashtbl.create 8 in
          Array.iteri (fun idx j -> Hashtbl.replace index j idx) faulty;
          fun view ~src outbox ->
            let idx = Option.value (Hashtbl.find_opt index src) ~default:0 in
            let crash_round = (idx + 1) * interval in
            if view.Adversary.round <= crash_round then outbox else Adversary.mute);
    }

  (* Authenticated attack: faulty committee members equivocate inside
     the Byzantine broadcasts - each certified faulty sender starts two
     different chains. Requires the faulty processes' keys. *)
  let committee_infiltrator ~pki ~v0 ~v1 : t =
    {
      Adversary.name = "committee-infiltrator";
      make =
        (fun ~n ~faulty ->
          let keys = Hashtbl.create 8 in
          Array.iter (fun j -> Hashtbl.replace keys j (Pki.key pki j)) faulty;
          fun _view ~src ->
            (* The puppet behaves normally except that its own root
               chains carry a recipient-dependent value, signed for real
               with the faulty member's key. *)
            Adversary.per_recipient ~n (fun ~dst m ->
                match m with
                | W.Bb_chain (tg, s, W.Chain_root { value = _; cert; link_sig = _ }) when s = src ->
                  let key = Hashtbl.find keys src in
                  let alt = if dst mod 2 = 0 then v0 else v1 in
                  let link_sig = Pki.sign key (W.chain_root_payload alt cert) in
                  [ W.Bb_chain (tg, s, W.Chain_root { value = alt; cert; link_sig }) ]
                | m -> [ m ]));
    }
end
