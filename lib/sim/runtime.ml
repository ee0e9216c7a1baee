module type MSG = sig
  type t
end

module type S = sig
  type msg
  type ctx

  val id : ctx -> int
  val n : ctx -> int
  val round : ctx -> int
  val exchange : ctx -> (int -> msg list) -> msg Inbox.t
  val broadcast_list : ctx -> msg list -> msg Inbox.t
  val broadcast : ctx -> msg -> msg Inbox.t
  val send_to : ctx -> (int * msg) list -> msg Inbox.t
  val silent_round : ctx -> msg Inbox.t
  val skip : ctx -> int -> unit

  type 'r outcome = {
    n : int;
    faulty : int array;
    decisions : 'r option array;
    decision_round : int array;
    rounds : int;
    honest_sent : int;
    honest_per_round : int array;
    honest_received : int array;
    honest_bits : int;
    adversary_sent : int;
  }

  exception Round_limit_exceeded of int

  val run :
    ?max_rounds:int ->
    ?trace:msg Trace.t ->
    ?msg_size:(msg -> int) ->
    ?network:(round:int -> src:int -> dst:int -> msg list -> msg list) ->
    ?group_key:(msg -> string option) ->
    ?mode:[ `Auto | `Concrete ] ->
    n:int ->
    faulty:int array ->
    adversary:msg Adversary.t ->
    (ctx -> 'r) ->
    'r outcome

  val honest_decisions : 'r outcome -> (int * 'r) list
end

module Make (M : MSG) : S with type msg = M.t = struct
  module Tel = Bap_telemetry.Telemetry

  type msg = M.t
  type ctx = { ctx_id : int; ctx_n : int; mutable ctx_round : int }

  let id c = c.ctx_id
  let n c = c.ctx_n
  let round c = c.ctx_round

  (* The two outbox shapes a fiber can yield. [Obroadcast] is the
     counted engine's native form: recipient-independent, so identical
     honest broadcasts aggregate into one (payload, sender-set) group.
     [Ofun] forces per-recipient materialisation on either path. *)
  type outbox = Obroadcast of msg list | Ofun of (int -> msg list)

  type _ Effect.t += Exchange : outbox -> msg Inbox.t Effect.t

  let exchange _ctx f = Effect.perform (Exchange (Ofun f))
  let broadcast_list _ctx msgs = Effect.perform (Exchange (Obroadcast msgs))
  let broadcast ctx m = broadcast_list ctx [ m ]

  let send_to ctx pairs =
    let outbox j = List.filter_map (fun (dst, m) -> if dst = j then Some m else None) pairs in
    exchange ctx outbox

  let silent_round ctx = broadcast_list ctx []

  let skip ctx r =
    for _ = 1 to r do
      ignore (silent_round ctx)
    done

  type 'r outcome = {
    n : int;
    faulty : int array;
    decisions : 'r option array;
    decision_round : int array;
    rounds : int;
    honest_sent : int;
    honest_per_round : int array;
    honest_received : int array;
    honest_bits : int;
    adversary_sent : int;
  }

  exception Round_limit_exceeded of int

  (* A fiber is either finished with a result or suspended at an
     [exchange], holding its outbox and the continuation expecting the
     round's inbox. *)
  type 'r status =
    | Finished of 'r
    | Yielded of outbox * (msg Inbox.t, 'r status) Effect.Deep.continuation

  let spawn (body : unit -> 'r) : 'r status =
    Effect.Deep.match_with body ()
      {
        retc = (fun r -> Finished r);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Exchange ob ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) -> Yielded (ob, k))
            | _ -> None);
      }

  (* A sender's effective traffic shape on the counted path. *)
  type shape = RNone | RBroadcast of msg list | RRow of msg list array

  (* Injective key for a whole broadcast list: netstring-join of the
     per-message keys, [None] as soon as one message must not group. *)
  let key_of gk msgs =
    let rec go buf = function
      | [] -> Some (Buffer.contents buf)
      | m :: rest -> (
        match gk m with
        | None -> None
        | Some s ->
          Buffer.add_string buf (string_of_int (String.length s));
          Buffer.add_char buf ':';
          Buffer.add_string buf s;
          go buf rest)
    in
    go (Buffer.create 64) msgs

  let run ?(max_rounds = 100_000) ?trace ?msg_size ?network ?group_key ?(mode = `Auto)
      ~n ~faulty ~adversary body =
    let is_faulty = Array.make n false in
    Array.iter
      (fun i ->
        if i < 0 || i >= n then invalid_arg "Runtime.run: faulty id out of range";
        is_faulty.(i) <- true)
      faulty;
    let handlers = adversary.Adversary.make ~n ~faulty in
    let ctxs = Array.init n (fun i -> { ctx_id = i; ctx_n = n; ctx_round = 0 }) in
    let decisions = Array.make n None in
    let decision_round = Array.make n (-1) in
    let record e = match trace with Some t -> Trace.record t e | None -> () in
    let note_finish i r round =
      decisions.(i) <- Some r;
      decision_round.(i) <- round;
      record (Trace.Decide { who = i; round })
    in
    let honest_sent = ref 0 in
    let honest_bits = ref 0 in
    let honest_received = Array.make n 0 in
    let adversary_sent = ref 0 in
    let per_round = ref [] in
    let round = ref 0 in
    (* The counted engine is byte-identical to the concrete one but
       cannot feed a per-edge trace or network hook, so either observer
       forces the reference path. *)
    let counted_ok =
      match mode with
      | `Concrete -> false
      | `Auto -> Option.is_none trace && Option.is_none network
    in
    let validate_send { Adversary.src; dst; _ } =
      (* Reject bad injections loudly: silently accepting a send from an
         honest id would let a buggy adversary forge honest behaviour
         and corrupt every message-complexity metric. *)
      if src < 0 || src >= n then
        invalid_arg
          (Printf.sprintf
             "Runtime.run: adversary injected from out-of-range source %d (round %d)"
             src !round);
      if not is_faulty.(src) then
        invalid_arg
          (Printf.sprintf
             "Runtime.run: adversary injected from non-faulty source %d (round %d)"
             src !round);
      if dst < 0 || dst >= n then
        invalid_arg
          (Printf.sprintf
             "Runtime.run: adversary injected to out-of-range destination %d (round %d)"
             dst !round)
    in
    (* The sim.run span covers the spawn too: the first segment of every
       protocol (up to its first exchange) runs inside [spawn], and any
       phase spans it opens must land inside this one. *)
    Tel.span ~cat:"sim" ~name:"sim.run"
      ~attrs:(fun () -> [ ("n", Tel.Int n); ("f", Tel.Int (Array.length faulty)) ])
      ~end_attrs:(fun () ->
        [
          ("rounds", Tel.Int !round);
          ("msgs", Tel.Int !honest_sent);
          ("bits", Tel.Int !honest_bits);
          ("adversary_msgs", Tel.Int !adversary_sent);
        ])
      (fun () ->
    let status = Array.init n (fun i -> spawn (fun () -> body ctxs.(i))) in
    Array.iteri
      (fun i st -> match st with Finished r -> note_finish i r 0 | Yielded _ -> ())
      status;
    let honest_running () =
      let any = ref false in
      Array.iteri
        (fun i st ->
          match st with Yielded _ when not is_faulty.(i) -> any := true | _ -> ())
        status;
      !any
    in
    let this_round = ref 0 in
    let bits0 = ref 0 in
    (* -- concrete (per-pair) engine: the reference semantics -- *)
    let arena = if counted_ok then None else Some (Arena.create n) in
    let concrete_round (arena : msg Arena.t) =
      Arena.clear arena;
      let out = arena.Arena.out and eff = arena.Arena.eff in
      (* Materialise the outboxes so each is evaluated exactly once. *)
      Array.iteri
        (fun src st ->
          match st with
          | Yielded (Obroadcast msgs, _) -> Array.fill out.(src) 0 n msgs
          | Yielded (Ofun f, _) ->
            for dst = 0 to n - 1 do
              out.(src).(dst) <- f dst
            done
          | Finished _ -> ())
        status;
      let view =
        {
          Adversary.round = !round;
          n;
          faulty;
          honest_out =
            (fun ~sender ~recipient ->
              if is_faulty.(sender) then [] else out.(sender).(recipient));
        }
      in
      for src = 0 to n - 1 do
        if is_faulty.(src) then begin
          let puppet dst = out.(src).(dst) in
          for dst = 0 to n - 1 do
            eff.(src).(dst) <- handlers.Adversary.filter view ~src puppet dst
          done
        end
        else Array.blit out.(src) 0 eff.(src) 0 n
      done;
      (match handlers.Adversary.inject view with
      | [] -> ()
      | sends ->
        (* Group per (src, dst) so each slot takes one append instead of
           one quadratic [@ [m]] per injected message; delivery order is
           the injection order, pinned by a regression test. *)
        let extras = Hashtbl.create 16 in
        let touched = ref [] in
        List.iter
          (fun ({ Adversary.src; dst; payload } as send) ->
            validate_send send;
            let key = (src * n) + dst in
            match Hashtbl.find_opt extras key with
            | None ->
              touched := key :: !touched;
              Hashtbl.replace extras key [ payload ]
            | Some acc -> Hashtbl.replace extras key (payload :: acc))
          sends;
        List.iter
          (fun key ->
            let src = key / n and dst = key mod n in
            eff.(src).(dst) <- eff.(src).(dst) @ List.rev (Hashtbl.find extras key))
          (List.rev !touched));
      (match network with
      | None -> ()
      | Some perturb ->
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            eff.(src).(dst) <- perturb ~round:!round ~src ~dst eff.(src).(dst)
          done
        done);
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            let c = List.length eff.(src).(dst) in
            if is_faulty.(src) then adversary_sent := !adversary_sent + c
            else begin
              this_round := !this_round + c;
              honest_received.(dst) <- honest_received.(dst) + c;
              match msg_size with
              | Some size ->
                List.iter (fun m -> honest_bits := !honest_bits + size m) eff.(src).(dst)
              | None -> ()
            end
          end
        done
      done;
      (match trace with
      | None -> ()
      | Some t ->
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            List.iter
              (fun m ->
                Trace.record t
                  (Trace.Deliver { src; dst; msg = m; byzantine = is_faulty.(src) }))
              eff.(src).(dst)
          done
        done);
      Array.iteri
        (fun i st ->
          match st with
          | Finished _ -> ()
          | Yielded (_, k) ->
            let inbox =
              if is_faulty.(i) then
                Inbox.concrete
                  (Array.init n (fun src ->
                       handlers.Adversary.filter_in view ~dst:i ~src eff.(src).(i)))
              else Inbox.concrete (Array.init n (fun src -> eff.(src).(i)))
            in
            let st' = Effect.Deep.continue k inbox in
            status.(i) <- st';
            (match st' with Finished r -> note_finish i r !round | Yielded _ -> ()))
        status
    in
    (* -- counted engine: aggregates identical honest broadcasts -- *)
    let faulty_sorted =
      let a = Array.copy faulty in
      Array.sort Int.compare a;
      a
    in
    (* Per-round scratch, allocated once per run and wiped between
       rounds (the counted path's arena). *)
    let kind : shape array = Array.make n RNone in
    let ekind : shape array = Array.make n RNone in
    let grouped = Array.make n false in
    let own_len = Array.make n 0 in
    let inj_rev : (int * msg) list array = Array.make n [] in
    let group_tbl : (string, msg list * Bitset.t) Hashtbl.t = Hashtbl.create 64 in
    let size_sum msgs =
      match msg_size with
      | None -> 0
      | Some size -> List.fold_left (fun acc m -> acc + size m) 0 msgs
    in
    let counted_round () =
      Array.fill kind 0 n RNone;
      Array.fill ekind 0 n RNone;
      Array.fill grouped 0 n false;
      Array.fill own_len 0 n 0;
      (* 1. Materialise outboxes: same evaluation order and call counts
         as the concrete path (function outboxes run once per recipient,
         destinations ascending, sources ascending). *)
      Array.iteri
        (fun src st ->
          match st with
          | Yielded (Obroadcast msgs, _) -> kind.(src) <- RBroadcast msgs
          | Yielded (Ofun f, _) -> kind.(src) <- RRow (Array.init n f)
          | Finished _ -> ())
        status;
      let view =
        {
          Adversary.round = !round;
          n;
          faulty;
          honest_out =
            (fun ~sender ~recipient ->
              if is_faulty.(sender) then []
              else
                match kind.(sender) with
                | RNone -> []
                | RBroadcast msgs -> msgs
                | RRow r -> r.(recipient));
        }
      in
      (* 2. Honest senders: aggregate broadcast shapes into groups. *)
      Hashtbl.reset group_tbl;
      let groups_rev = ref [] in
      let base_honest_total = ref 0 in
      let bits_per_recipient = ref 0 in
      for src = 0 to n - 1 do
        if not is_faulty.(src) then
          match kind.(src) with
          | RNone | RBroadcast [] -> ()
          | RBroadcast msgs as k ->
            ekind.(src) <- k;
            let len = List.length msgs in
            base_honest_total := !base_honest_total + len;
            own_len.(src) <- len;
            bits_per_recipient := !bits_per_recipient + size_sum msgs;
            (match group_key with
            | None -> ()
            | Some gk -> (
              match key_of gk msgs with
              | None -> ()
              | Some key -> (
                grouped.(src) <- true;
                match Hashtbl.find_opt group_tbl key with
                | Some (_, set) -> Bitset.set set src
                | None ->
                  let set = Bitset.create n in
                  Bitset.set set src;
                  let entry = (msgs, set) in
                  Hashtbl.replace group_tbl key entry;
                  groups_rev := entry :: !groups_rev)))
          | RRow _ as k -> ekind.(src) <- k
      done;
      (* 3. Faulty senders, ascending (the concrete path's filter-call
         order). The canonical combinators are recognised physically:
         they are pure, so skipping their calls is unobservable. *)
      Array.iter
        (fun src ->
          let pk = kind.(src) in
          if handlers.Adversary.filter == Adversary.mute_filter then ()
          else if handlers.Adversary.filter == Adversary.identity_filter then (
            match pk with RNone | RBroadcast [] -> () | k -> ekind.(src) <- k)
          else begin
            let puppet dst =
              match pk with RNone -> [] | RBroadcast msgs -> msgs | RRow r -> r.(dst)
            in
            ekind.(src) <-
              RRow (Array.init n (fun dst -> handlers.Adversary.filter view ~src puppet dst))
          end)
        faulty_sorted;
      (* 4. Injections, validated in order with the concrete path's
         exact errors. *)
      let touched_dsts = ref [] in
      let inj_adv = ref 0 in
      List.iter
        (fun ({ Adversary.src; dst; payload } as send) ->
          validate_send send;
          if dst <> src then incr inj_adv;
          (match inj_rev.(dst) with [] -> touched_dsts := dst :: !touched_dsts | _ :: _ -> ());
          inj_rev.(dst) <- (src, payload) :: inj_rev.(dst))
        (handlers.Adversary.inject view);
      (* 5. Accounting: identical totals, computed per group / sender
         instead of per pair. *)
      this_round := !this_round + (!base_honest_total * (n - 1));
      honest_bits := !honest_bits + (!bits_per_recipient * (n - 1));
      for dst = 0 to n - 1 do
        honest_received.(dst) <- honest_received.(dst) + !base_honest_total - own_len.(dst)
      done;
      for src = 0 to n - 1 do
        match ekind.(src) with
        | RNone -> ()
        | RBroadcast msgs ->
          if is_faulty.(src) then
            adversary_sent := !adversary_sent + (List.length msgs * (n - 1))
        | RRow r ->
          if is_faulty.(src) then
            for dst = 0 to n - 1 do
              if dst <> src then adversary_sent := !adversary_sent + List.length r.(dst)
            done
          else
            for dst = 0 to n - 1 do
              if dst <> src then begin
                let c = List.length r.(dst) in
                this_round := !this_round + c;
                honest_received.(dst) <- honest_received.(dst) + c;
                honest_bits := !honest_bits + size_sum r.(dst)
              end
            done
      done;
      adversary_sent := !adversary_sent + !inj_adv;
      (* 6. Assemble inboxes. With no function-shaped traffic and no
         injections every recipient shares one immutable inbox. *)
      let groups_arr = Array.of_list (List.rev !groups_rev) in
      let shared_direct =
        let acc = ref [] in
        for src = n - 1 downto 0 do
          if not grouped.(src) then
            match ekind.(src) with
            | RBroadcast msgs -> acc := (src, msgs) :: !acc
            | RNone | RRow _ -> ()
        done;
        Array.of_list !acc
      in
      let rows_exist = Array.exists (function RRow _ -> true | _ -> false) ekind in
      let have_extras =
        rows_exist || (match !touched_dsts with [] -> false | _ :: _ -> true)
      in
      let shared_inbox =
        if have_extras then None
        else Some (Inbox.counted ~n ~groups:groups_arr ~direct:shared_direct)
      in
      let base_of src dst =
        match ekind.(src) with RNone -> [] | RBroadcast msgs -> msgs | RRow r -> r.(dst)
      in
      let overrides_for i =
        let ov = ref [] in
        if rows_exist then
          for src = 0 to n - 1 do
            match ekind.(src) with
            | RRow r -> (
              match r.(i) with [] -> () | msgs -> ov := (src, msgs) :: !ov)
            | RNone | RBroadcast _ -> ()
          done;
        List.iter
          (fun (src, payload) ->
            match List.assoc_opt src !ov with
            | Some cur -> ov := (src, cur @ [ payload ]) :: List.remove_assoc src !ov
            | None -> ov := (src, base_of src i @ [ payload ]) :: !ov)
          (List.rev inj_rev.(i));
        !ov
      in
      let inbox_for i =
        match shared_inbox with
        | Some shared -> shared
        | None -> (
          match overrides_for i with
          | [] -> Inbox.counted ~n ~groups:groups_arr ~direct:shared_direct
          | ov ->
            let ov_sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) ov in
            (* Keep the group/direct disjointness invariant: an
               overridden sender leaves its group for this recipient. *)
            let grouped_ov = List.filter (fun (src, _) -> grouped.(src)) ov_sorted in
            let groups_i =
              match grouped_ov with
              | [] -> groups_arr
              | _ :: _ ->
                Array.map
                  (fun (msgs, set) ->
                    if List.exists (fun (src, _) -> Bitset.get set src) grouped_ov then begin
                      let set' = Bitset.copy set in
                      List.iter
                        (fun (src, _) -> if Bitset.get set' src then Bitset.clear set' src)
                        grouped_ov;
                      (msgs, set')
                    end
                    else (msgs, set))
                  groups_arr
            in
            let rec merge acc ds ovs =
              match (ds, ovs) with
              | [], rest | rest, [] -> List.rev_append acc rest
              | ((s1, _) as d) :: ds', ((s2, _) as o) :: ovs' ->
                if s1 < s2 then merge (d :: acc) ds' ovs
                else if s1 > s2 then merge (o :: acc) ds ovs'
                else merge (o :: acc) ds' ovs'
            in
            let direct = Array.of_list (merge [] (Array.to_list shared_direct) ov_sorted) in
            Inbox.counted ~n ~groups:groups_i ~direct)
      in
      let skip_filter_in = handlers.Adversary.filter_in == Adversary.identity_in in
      Array.iteri
        (fun i st ->
          match st with
          | Finished _ -> ()
          | Yielded (_, k) ->
            let inbox =
              if is_faulty.(i) && not skip_filter_in then begin
                let ov = overrides_for i in
                let slot src =
                  match List.assoc_opt src ov with
                  | Some msgs -> msgs
                  | None -> base_of src i
                in
                Inbox.concrete
                  (Array.init n (fun src ->
                       handlers.Adversary.filter_in view ~dst:i ~src (slot src)))
              end
              else inbox_for i
            in
            let st' = Effect.Deep.continue k inbox in
            status.(i) <- st';
            (match st' with Finished r -> note_finish i r !round | Yielded _ -> ()))
        status;
      List.iter (fun dst -> inj_rev.(dst) <- []) !touched_dsts
    in
    while honest_running () do
      incr round;
      if !round > max_rounds then raise (Round_limit_exceeded max_rounds);
      record (Trace.Round_begin !round);
      this_round := 0;
      bits0 := !honest_bits;
      (* Not a folding frame: process 0's protocol spans open inside
         one round and close in a later one. *)
      Tel.span ~cat:"sim" ~name:"round" ~fold:false
        ~attrs:(fun () -> [ ("round", Tel.Int !round) ])
        ~end_attrs:(fun () ->
          [ ("msgs", Tel.Int !this_round); ("bits", Tel.Int (!honest_bits - !bits0)) ])
        (fun () ->
          Array.iter (fun c -> c.ctx_round <- !round) ctxs;
          match arena with
          | Some a -> concrete_round a
          | None -> counted_round ());
      honest_sent := !honest_sent + !this_round;
      per_round := !this_round :: !per_round;
      record (Trace.Round_end !round);
      Tel.Metrics.counter "sim.rounds" 1;
      Tel.Metrics.counter "sim.msgs" !this_round;
      Tel.Metrics.counter "sim.bits" (!honest_bits - !bits0);
      Tel.Metrics.observe "sim.round_msgs" !this_round
    done);
    {
      n;
      faulty;
      decisions;
      decision_round;
      rounds = !round;
      honest_sent = !honest_sent;
      honest_per_round = Array.of_list (List.rev !per_round);
      honest_received;
      honest_bits = !honest_bits;
      adversary_sent = !adversary_sent;
    }

  let honest_decisions outcome =
    let is_faulty = Array.make outcome.n false in
    Array.iter (fun i -> is_faulty.(i) <- true) outcome.faulty;
    let acc = ref [] in
    for i = outcome.n - 1 downto 0 do
      if not is_faulty.(i) then
        match outcome.decisions.(i) with Some v -> acc := (i, v) :: !acc | None -> ()
    done;
    !acc
end
