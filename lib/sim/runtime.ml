module type MSG = sig
  type t
end

type 'm grouping =
  | Grouping : {
      key : 'm -> 'k option;
      hash : 'k -> int;
      equal : 'k -> 'k -> bool;
    }
      -> 'm grouping

module type S = sig
  type msg
  type ctx

  val id : ctx -> int
  val n : ctx -> int
  val round : ctx -> int
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
    ?grouping:msg grouping ->
    ?on_round:(int -> unit) ->
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

  (* A fiber yields its round's outbox in one of the adversary's two
     shapes ({!Adversary.outbox}). A broadcast is the counted engine's
     native form: recipient-independent, so identical honest broadcasts
     aggregate into one (payload, sender-set) group. Unicast pairs are
     laid out as one per-recipient row on either path. *)
  type _ Effect.t += Exchange : msg Adversary.outbox -> msg Inbox.t Effect.t

  let broadcast_list _ctx msgs = Effect.perform (Exchange (Adversary.Broadcast msgs))
  let broadcast ctx m = broadcast_list ctx [ m ]
  let send_to _ctx pairs = Effect.perform (Exchange (Adversary.Pairs pairs))

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

  (* A fiber is either finished with a result or suspended at the end of
     a round, holding its outbox and the continuation expecting the
     round's inbox. *)
  type 'r status =
    | Finished of 'r
    | Yielded of msg Adversary.outbox * (msg Inbox.t, 'r status) Effect.Deep.continuation

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

  (* A sender's effective traffic shape on the counted path, and what it
     sends to [dst]. *)
  type shape = RNone | RBroadcast of msg list | RRow of msg list array

  let slot shape dst = match shape with RNone -> [] | RBroadcast msgs -> msgs | RRow r -> r.(dst)

  (* Lay unicast [pairs] into the empty [row]: slot [dst] holds the
     messages to [dst] in send order. A pair naming no process is
     dropped. O(pairs). *)
  let lay_out row pairs =
    let n = Array.length row in
    List.iter
      (fun (dst, m) -> if dst >= 0 && dst < n then row.(dst) <- m :: row.(dst))
      (List.rev pairs)

  (* One round's broadcast groups. [add src msgs] puts an honest
     sender's list into the group of equal lists, opening one if needed,
     and is false when some message has no key; [flush] returns the
     round's groups in first-seen order and empties the table. *)
  type grouper = {
    add : int -> msg list -> bool;
    flush : unit -> (msg list * Bitset.t) list;
  }

  (* Buckets keyed by the hash of the list's keys; an entry keeps its
     keys so a lookup compares keys, never bytes. *)
  let grouper (type k) ~n ~(key : msg -> k option) ~(hash : k -> int)
      ~(equal : k -> k -> bool) =
    let cap =
      let rec up c = if c >= 2 * n then c else up (2 * c) in
      up 16
    in
    let buckets : (int * k list * Bitset.t) list array = Array.make cap [] in
    let order = ref [] in
    let rec keys acc = function
      | [] -> Some (List.rev acc)
      | m :: rest -> (
        match key m with None -> None | Some k -> keys (k :: acc) rest)
    in
    let rec hash_keys h = function
      | [] -> h
      | k :: rest -> hash_keys ((31 * h) + hash k) rest
    in
    let rec join src h ks = function
      | [] -> false
      | (h', ks', set) :: rest ->
        if h = h' && List.equal equal ks ks' then (
          Bitset.set set src;
          true)
        else join src h ks rest
    in
    let add src msgs =
      match keys [] msgs with
      | None -> false
      | Some ks ->
        let h = hash_keys 0 ks land max_int in
        let b = h land (cap - 1) in
        if not (join src h ks buckets.(b)) then begin
          let set = Bitset.create n in
          Bitset.set set src;
          buckets.(b) <- (h, ks, set) :: buckets.(b);
          order := (b, msgs, set) :: !order
        end;
        true
    in
    let flush () =
      let groups =
        List.rev_map
          (fun (b, msgs, set) ->
            buckets.(b) <- [];
            (msgs, set))
          !order
      in
      order := [];
      groups
    in
    { add; flush }

  let run ?(max_rounds = 100_000) ?trace ?msg_size ?network ?group_key ?grouping ?on_round
      ?(mode = `Auto) ~n ~faulty ~adversary body =
    let grouping =
      match (group_key, grouping) with
      | Some _, Some _ -> invalid_arg "Runtime.run: both group_key and grouping given"
      | Some key, None -> Some (Grouping { key; hash = String.hash; equal = String.equal })
      | None, g -> g
    in
    let is_faulty = Array.make n false in
    Array.iter
      (fun i ->
        if i < 0 || i >= n then invalid_arg "Runtime.run: faulty id out of range";
        is_faulty.(i) <- true)
      faulty;
    let step = adversary.Adversary.make ~n ~faulty in
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
    (* The adversary fills only faulty processes' own outboxes, so its
       traffic needs one check: a faulty pair naming no process is an
       adversary bug, reported loudly rather than dropped. *)
    let check_pairs pairs =
      List.iter
        (fun (dst, _) ->
          if dst < 0 || dst >= n then
            invalid_arg
              (Printf.sprintf
                 "Runtime.run: adversary sent to out-of-range destination %d (round %d)" dst
                 !round))
        pairs
    in
    let faulty_ids =
      Array.of_list (List.filter (fun i -> is_faulty.(i)) (List.init n Fun.id))
    in
    (* The sim.run span covers the spawn too: the first segment of every
       protocol (up to its first round) runs inside [spawn], and any
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
    (* One adversary step per round, on either engine: the view stage
       once, then every faulty process in ascending order with its
       puppet's outbox; [emit src outbox] takes what [src] sends. *)
    let adversary_round honest_out emit =
      let per_src = step { Adversary.round = !round; n; faulty; honest_out } in
      Array.iter
        (fun src ->
          let puppet =
            match status.(src) with Yielded (ob, _) -> ob | Finished _ -> Adversary.mute
          in
          let ob = per_src ~src puppet in
          (match ob with Adversary.Pairs pairs -> check_pairs pairs | Broadcast _ -> ());
          emit src ob)
        faulty_ids
    in
    let this_round = ref 0 in
    let bits0 = ref 0 in
    (* -- concrete (per-pair) engine: the reference semantics -- *)
    let arena = if counted_ok then None else Some (Arena.create n) in
    let concrete_round (arena : msg Arena.t) =
      Arena.clear arena;
      let eff = arena.Arena.eff in
      let fill src = function
        | Adversary.Broadcast msgs -> Array.fill eff.(src) 0 n msgs
        | Adversary.Pairs pairs -> lay_out eff.(src) pairs
      in
      (* Honest rows first: the rushing view reads them. *)
      Array.iteri
        (fun src st ->
          match st with
          | Yielded (ob, _) when not is_faulty.(src) -> fill src ob
          | Yielded _ | Finished _ -> ())
        status;
      adversary_round
        (fun ~sender ~recipient -> if is_faulty.(sender) then [] else eff.(sender).(recipient))
        fill;
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
            let inbox = Inbox.concrete (Array.init n (fun src -> eff.(src).(i))) in
            let st' = Effect.Deep.continue k inbox in
            status.(i) <- st';
            (match st' with Finished r -> note_finish i r !round | Yielded _ -> ()))
        status
    in
    (* -- counted engine: aggregates identical honest broadcasts -- *)
    (* Per-round scratch, allocated once per run and wiped between
       rounds (the counted path's arena). *)
    let ekind : shape array = Array.make n RNone in
    let grouped = Array.make n false in
    let own_len = Array.make n 0 in
    let grouper =
      match grouping with
      | Some (Grouping { key; hash; equal }) when counted_ok ->
        Some (grouper ~n ~key ~hash ~equal)
      | Some _ | None -> None
    in
    (* A broadcast stays one list, unicast pairs become one row. *)
    let shape_of = function
      | Adversary.Broadcast [] | Adversary.Pairs [] -> RNone
      | Adversary.Broadcast msgs -> RBroadcast msgs
      | Adversary.Pairs pairs ->
        let row = Array.make n [] in
        lay_out row pairs;
        RRow row
    in
    (* Recipient [i]'s row slots, ascending by sender. *)
    let rec row_slots i = function
      | [] -> []
      | src :: rest -> (
        match ekind.(src) with
        | RRow r -> (
          match r.(i) with [] -> row_slots i rest | msgs -> (src, msgs) :: row_slots i rest)
        | RNone | RBroadcast _ -> row_slots i rest)
    in
    let size_sum msgs =
      match msg_size with
      | None -> 0
      | Some size -> List.fold_left (fun acc m -> acc + size m) 0 msgs
    in
    let counted_round () =
      Array.fill ekind 0 n RNone;
      Array.fill grouped 0 n false;
      Array.fill own_len 0 n 0;
      (* 1. Honest senders: aggregate broadcasts into groups. A group's
         bits are counted once, times its cardinality. *)
      let base_honest_total = ref 0 in
      let bits_per_recipient = ref 0 in
      Array.iteri
        (fun src st ->
          match st with
          | Yielded (ob, _) when not is_faulty.(src) -> (
            match shape_of ob with
            | RBroadcast msgs as k ->
              ekind.(src) <- k;
              let len = List.length msgs in
              base_honest_total := !base_honest_total + len;
              own_len.(src) <- len;
              let joined = match grouper with Some g -> g.add src msgs | None -> false in
              if joined then grouped.(src) <- true
              else bits_per_recipient := !bits_per_recipient + size_sum msgs
            | k -> ekind.(src) <- k)
          | Yielded _ | Finished _ -> ())
        status;
      let groups = match grouper with Some g -> g.flush () | None -> [] in
      List.iter
        (fun (msgs, set) ->
          bits_per_recipient := !bits_per_recipient + (size_sum msgs * Bitset.cardinal set))
        groups;
      (* 2. Faulty senders, in the shapes honest ones use: a broadcast
         stays one direct entry and keeps the shared inbox. *)
      adversary_round
        (fun ~sender ~recipient -> if is_faulty.(sender) then [] else slot ekind.(sender) recipient)
        (fun src ob -> ekind.(src) <- shape_of ob);
      (* 3. Accounting: identical totals, computed per group / sender
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
      (* 4. Assemble inboxes. With no unicast rows every recipient
         shares one immutable inbox, marked shared so derivations every
         recipient reads the same way run once on it. *)
      let groups_arr = Array.of_list groups in
      let shared_direct = ref [] and row_srcs = ref [] in
      for src = n - 1 downto 0 do
        match ekind.(src) with
        | RBroadcast msgs when not grouped.(src) ->
          shared_direct := (src, msgs) :: !shared_direct
        | RRow _ -> row_srcs := src :: !row_srcs
        | RBroadcast _ | RNone -> ()
      done;
      let shared_direct = Array.of_list !shared_direct in
      let inbox_for =
        match !row_srcs with
        | [] ->
          let shared = Inbox.shared ~n ~groups:groups_arr ~direct:shared_direct in
          fun _ -> shared
        | row_srcs -> (
          fun i ->
            match row_slots i row_srcs with
            | [] -> Inbox.counted ~n ~groups:groups_arr ~direct:shared_direct
            | rows ->
              (* A row's sender is neither grouped nor a direct entry, so
                 the two ascending lists are disjoint. *)
              let rec merge acc ds rows =
                match (ds, rows) with
                | [], rest | rest, [] -> List.rev_append acc rest
                | ((s1, _) as d) :: ds', ((s2, _) as r) :: rows' ->
                  if s1 < s2 then merge (d :: acc) ds' rows else merge (r :: acc) ds rows'
              in
              let direct = Array.of_list (merge [] (Array.to_list shared_direct) rows) in
              Inbox.counted ~n ~groups:groups_arr ~direct)
      in
      Array.iteri
        (fun i st ->
          match st with
          | Finished _ -> ()
          | Yielded (_, k) ->
            let st' = Effect.Deep.continue k (inbox_for i) in
            status.(i) <- st';
            (match st' with Finished r -> note_finish i r !round | Yielded _ -> ()))
        status
    in
    while honest_running () do
      incr round;
      if !round > max_rounds then raise (Round_limit_exceeded max_rounds);
      (match on_round with Some hook -> hook !round | None -> ());
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
