(* The agreement service (lib/serve): frame codec round-trips and
   hostile-input tolerance, typed admission, dispatch determinism
   across --jobs, the end-to-end loop with its byte-identity oracle,
   and graceful drain. *)

module Frame = Bap_servelib.Frame
module Instance = Bap_servelib.Instance
module Admission = Bap_servelib.Admission
module Dispatch = Bap_servelib.Dispatch
module Server = Bap_servelib.Server
module Load = Bap_servelib.Load
module Journal = Bap_servelib.Journal
module Health = Bap_servelib.Health
module Pool = Bap_exec.Pool
module Supervisor = Bap_exec.Supervisor
module Harness = Bap_chaos.Harness

(* ---------- codec: property tests ---------- *)

let payload_gen = QCheck.string_of_size (QCheck.Gen.int_range 0 2048)

let qcheck_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame: encode/decode_all round-trip"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20) payload_gen)
    (fun payloads ->
      let wire = String.concat "" (List.map Frame.encode payloads) in
      let decoded, tail = Frame.decode_all wire in
      decoded = payloads && tail = Frame.Clean)

(* Cutting the stream anywhere must yield a clean prefix of frames plus
   a typed torn tail — and feeding the remainder to the same decoder
   must recover every remaining frame. The exact shape a mid-write
   disconnect leaves behind. *)
let qcheck_torn_resume =
  QCheck.Test.make ~count:200 ~name:"frame: torn at any split, resumes"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 10) (string_of_size (Gen.int_range 0 256)))
        (float_bound_inclusive 1.))
    (fun (payloads, frac) ->
      let wire = String.concat "" (List.map Frame.encode payloads) in
      let cut = int_of_float (frac *. float_of_int (String.length wire)) in
      let cut = max 0 (min (String.length wire) cut) in
      let dec = Frame.decoder () in
      let collect () =
        let rec go acc =
          match Frame.next dec with
          | Frame.Frame p -> go (p :: acc)
          | Frame.Await | Frame.Oversized _ -> List.rev acc
        in
        go []
      in
      Frame.feed_string dec (String.sub wire 0 cut);
      let before = collect () in
      let buffered_at_cut = Frame.buffered dec in
      Frame.feed_string dec (String.sub wire cut (String.length wire - cut));
      let after = collect () in
      (* Decoded frames form a prefix at the cut and the remainder
         recovers everything; the one-shot decoder agrees on the torn
         prefix, typing the ragged tail instead of raising. *)
      let oneshot, tail = Frame.decode_all (String.sub wire 0 cut) in
      before @ after = payloads
      && oneshot = before
      && (match tail with
         | Frame.Clean -> buffered_at_cut = 0
         | Frame.Torn n -> n = buffered_at_cut && n > 0
         | Frame.Oversized_tail _ -> false))

let test_oversized_poisons () =
  let dec = Frame.decoder ~max_len:64 () in
  Frame.feed_string dec (Frame.encode (String.make 65 'x'));
  (match Frame.next dec with
  | Frame.Oversized n -> Alcotest.(check int) "reported length" 65 n
  | _ -> Alcotest.fail "oversized prefix not detected");
  Alcotest.(check bool) "decoder poisoned" true (Frame.poisoned dec);
  (* Bytes after the poison are discarded, not misparsed: the length
     prefix can no longer be trusted to mark a boundary. *)
  Frame.feed_string dec (Frame.encode "ok");
  (match Frame.next dec with
  | Frame.Oversized _ -> ()
  | Frame.Frame _ -> Alcotest.fail "poisoned decoder resynchronised"
  | Frame.Await -> Alcotest.fail "poisoned decoder went quiet");
  match Frame.decode_all ~max_len:64 (Frame.encode (String.make 65 'x')) with
  | [], Frame.Oversized_tail 65 -> ()
  | _ -> Alcotest.fail "decode_all disagrees on oversized tail"

let test_garbage_payload_is_one_rejection () =
  (* The codec is payload-agnostic: garbage bytes in a well-formed
     frame arrive intact, and parsing turns them into exactly one
     malformed rejection with the placeholder id. *)
  let garbage = "\x00\xff{not json\x01" in
  let frames, tail = Frame.decode_all (Frame.encode garbage) in
  Alcotest.(check int) "delivered" 1 (List.length frames);
  Alcotest.(check bool) "clean tail" true (tail = Frame.Clean);
  match Instance.parse (List.hd frames) with
  | Error (`Malformed _) -> ()
  | Error (`Invalid _) -> Alcotest.fail "garbage misread as a valid shape"
  | Ok _ -> Alcotest.fail "garbage parsed as a spec"

let test_header_garbage_is_oversized () =
  (* High random bytes where a length prefix belongs decode as an
     enormous length: the typed Oversized path, not an allocation. *)
  match Frame.decode_all ("\xde\xad\xbe\xef" ^ String.make 40 'z') with
  | [], Frame.Oversized_tail _ -> ()
  | _ -> Alcotest.fail "garbage header should poison the stream"

(* ---------- request parsing ---------- *)

let test_request_roundtrip () =
  List.iter
    (fun family ->
      let spec =
        { Instance.id = 9; family; n = 10; f = 2; m = 1; seed = 123 }
      in
      match Instance.parse (Instance.request_json spec) with
      | Ok s -> Alcotest.(check bool) "spec round-trips" true (s = spec)
      | Error _ -> Alcotest.fail "canonical request failed to parse")
    [ Instance.Unauth; Instance.Auth; Instance.Es; Instance.Pk ]

let test_invalid_envelope () =
  let base = { Instance.id = 1; family = Instance.Pk; n = 10; f = 2; m = 0; seed = 0 } in
  let invalids =
    [
      { base with Instance.n = 3 } (* below minimum *);
      { base with Instance.n = Instance.max_n + 1 };
      { base with Instance.f = 99 } (* above threshold *);
      { base with Instance.id = -2 };
      { base with Instance.m = 11 } (* more misclassified than processes *);
    ]
  in
  List.iter
    (fun s ->
      match Instance.parse (Instance.request_json s) with
      | Error (`Invalid (id, _)) ->
        Alcotest.(check int) "rejection carries client id" s.Instance.id id
      | Ok _ -> Alcotest.fail "out-of-envelope spec accepted"
      | Error (`Malformed _) -> Alcotest.fail "invalid misreported as malformed")
    invalids

(* ---------- admission ---------- *)

let spec_i i = { Instance.id = i; family = Instance.Pk; n = 4; f = 0; m = 0; seed = i }

let test_admission_sheds_overload () =
  let a = Admission.create ~capacity:3 in
  let offers = List.init 5 (fun i -> Admission.offer a ~now_us:0. (spec_i i)) in
  let enq = List.filter (fun d -> d = Admission.Enqueued) offers in
  let shed =
    List.filter (function Admission.Shed Instance.Overload -> true | _ -> false) offers
  in
  Alcotest.(check int) "capacity admitted" 3 (List.length enq);
  Alcotest.(check int) "excess shed as Overload" 2 (List.length shed);
  Alcotest.(check int) "depth bounded" 3 (Admission.depth a);
  (* FIFO: the batch comes back in arrival order. *)
  let batch = Admission.take_batch a ~max:10 in
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2 ]
    (List.map (fun (e : Admission.entry) -> e.Admission.spec.Instance.id) batch);
  (* Shedding freed nothing permanently: capacity is available again. *)
  Alcotest.(check bool) "post-batch offer admitted" true
    (Admission.offer a ~now_us:0. (spec_i 9) = Admission.Enqueued)

let test_admission_draining_gate () =
  let a = Admission.create ~capacity:8 in
  ignore (Admission.offer a ~now_us:0. (spec_i 0));
  Admission.start_drain a;
  (match Admission.offer a ~now_us:0. (spec_i 1) with
  | Admission.Shed Instance.Draining -> ()
  | _ -> Alcotest.fail "offer after drain not shed as Draining");
  (* The accepted backlog survives the gate flip. *)
  Alcotest.(check int) "backlog intact" 1 (Admission.depth a);
  Alcotest.(check int) "accepted_total counts only admissions" 1
    (Admission.accepted_total a)

(* ---------- dispatch determinism ---------- *)

let dispatch_specs =
  List.init 12 (fun i ->
      let fam = [ Instance.Pk; Instance.Es; Instance.Unauth ] in
      {
        Instance.id = i;
        family = List.nth fam (i mod 3);
        n = 4;
        f = i mod 2;
        m = 0;
        seed = 100 + i;
      })

let run_dispatch ~jobs ~inject =
  let scfg = { Supervisor.retries = 2; timeout_s = Some 5.; seed = 0; inject } in
  Supervisor.with_supervisor scfg (fun sup ->
      Pool.with_pool ~jobs (fun pool ->
          let d = Dispatch.create ~pool ~supervisor:sup in
          let entries =
            List.map (fun s -> { Admission.spec = s; arrival_us = 0. }) dispatch_specs
          in
          List.map
            (fun (_, r) -> Instance.response_to_json r)
            (Dispatch.run d entries)))

let test_dispatch_jobs_invariant () =
  let a = run_dispatch ~jobs:1 ~inject:None in
  let b = run_dispatch ~jobs:4 ~inject:None in
  Alcotest.(check (list string)) "responses byte-identical across jobs" a b

let test_dispatch_degrades_doomed () =
  (* An instance that faults on every attempt must come back Degraded
     in its own slot — and leave every other response untouched. *)
  let doomed_key = Instance.key (List.nth dispatch_specs 5) in
  let inject ~key ~attempt:_ =
    if key = doomed_key then Some Supervisor.Inject_crash else None
  in
  let clean = run_dispatch ~jobs:2 ~inject:None in
  let faulted = run_dispatch ~jobs:2 ~inject:(Some inject) in
  let module Json = Bap_telemetry.Json in
  List.iteri
    (fun i (c, f) ->
      if i = 5 then begin
        let j = Json.parse f in
        Alcotest.(check (option string))
          "doomed instance degraded" (Some "degraded")
          (Json.to_string (Json.member "status" j));
        Alcotest.(check (option int))
          "degraded response keeps the client id" (Some 5)
          (Json.to_int (Json.member "id" j))
      end
      else Alcotest.(check string) "other slots untouched" c f)
    (List.combine clean faulted)

(* ---------- end-to-end over pipes ---------- *)

let quiet_config ~jobs =
  {
    Server.default_config with
    Server.jobs;
    queue_capacity = 512;
    batch = 32;
    timeout_s = Some 5.;
  }

let test_end_to_end_clean () =
  let o =
    Load.run_inproc ~config:(quiet_config ~jobs:2) ~instances:120
      ~families:[ Instance.Pk; Instance.Es ] ~n:4 ()
  in
  (match Load.failures o with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "; " fs));
  Alcotest.(check int) "all answered ok" 120 o.Load.ok

let test_end_to_end_chaos () =
  (* Corrupt frames on the wire plus crash/hang injection server-side:
     the loop must survive, answer everything it accepted, and keep
     clean responses byte-identical to the serial batch. *)
  let chaos =
    Harness.create ~seed:5 ~crash_pct:10 ~hang_pct:2 ~doomed_pct:4
      ~frame_corrupt_pct:10 ()
  in
  let config =
    {
      (quiet_config ~jobs:2) with
      Server.inject = Some (Harness.decide chaos);
      timeout_s = Some 0.25;
    }
  in
  let o =
    Load.run_inproc ~chaos ~config ~instances:150
      ~families:[ Instance.Pk; Instance.Es ] ~n:4 ()
  in
  (match Load.failures ~chaos:true o with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "; " fs));
  Alcotest.(check bool) "some frames were corrupted" true (o.Load.corrupted > 0);
  Alcotest.(check bool) "server survived to report" true
    (Option.is_some o.Load.server);
  match o.Load.server with
  | Some s ->
    Alcotest.(check int) "every accepted instance answered"
      s.Server.accepted s.Server.responded
  | None -> ()

let test_drain_answers_backlog () =
  (* A drain request mid-stream: the server stops admitting, finishes
     what it accepted, and returns the requested exit code — while the
     client half of the pipe is still open. *)
  let c2s_r, c2s_w = Unix.pipe () in
  let s2c_r, s2c_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        Server.serve_fds (quiet_config ~jobs:1) ~in_fd:c2s_r ~out_fd:s2c_w)
  in
  let specs = List.init 5 spec_i in
  List.iter
    (fun s ->
      let wire = Frame.encode (Instance.request_json s) in
      let b = Bytes.of_string wire in
      ignore (Unix.write c2s_w b 0 (Bytes.length b)))
    specs;
  (* Read all five responses back: proof the backlog was answered. *)
  let dec = Frame.decoder () in
  let buf = Bytes.create 4096 in
  let got = ref [] in
  while List.length !got < 5 do
    (match Unix.read s2c_r buf 0 (Bytes.length buf) with
    | 0 -> Alcotest.fail "server closed before answering backlog"
    | k -> Frame.feed dec buf ~pos:0 ~len:k);
    let rec drain () =
      match Frame.next dec with
      | Frame.Frame p ->
        got := p :: !got;
        drain ()
      | Frame.Await | Frame.Oversized _ -> ()
    in
    drain ()
  done;
  Server.request_drain ~code:143;
  let stats = Domain.join server in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ c2s_r; c2s_w; s2c_r; s2c_w ];
  Alcotest.(check int) "exit code from drain request" 143 stats.Server.exit_code;
  Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped_disconnect;
  Alcotest.(check int) "all answered" 5 stats.Server.responded;
  (* Responses are correct, not merely present. *)
  List.iter
    (fun p ->
      match Instance.response_id p with
      | Some id when id >= 0 && id < 5 -> ()
      | _ -> Alcotest.fail "response for unknown id")
    !got

(* ---------- frame decoder state isolation ---------- *)

let test_decoder_state_isolation () =
  (* Two connections, two decoders: an oversized prefix poisoning one
     must not perturb the other's torn-tail resume — decoder state is
     per-connection, never shared. *)
  let a = Frame.decoder ~max_len:64 () in
  let b = Frame.decoder ~max_len:64 () in
  let wire = Frame.encode "payload-one" ^ Frame.encode "payload-two" in
  let cut = String.length wire - 3 in
  Frame.feed_string b (String.sub wire 0 cut);
  (match Frame.next b with
  | Frame.Frame p -> Alcotest.(check string) "b decodes its first frame" "payload-one" p
  | _ -> Alcotest.fail "b lost its first frame");
  (* Poison a while b is holding a torn tail. *)
  Frame.feed_string a (Frame.encode (String.make 65 'x'));
  (match Frame.next a with
  | Frame.Oversized _ -> ()
  | _ -> Alcotest.fail "a not poisoned by the oversized prefix");
  Alcotest.(check bool) "a poisoned" true (Frame.poisoned a);
  Alcotest.(check bool) "b unaffected" false (Frame.poisoned b);
  (* b resumes its torn frame as if a did not exist. *)
  Frame.feed_string b (String.sub wire cut 3);
  (match Frame.next b with
  | Frame.Frame p -> Alcotest.(check string) "b resumes the torn frame" "payload-two" p
  | _ -> Alcotest.fail "b failed to resume after a was poisoned");
  (match Frame.next b with
  | Frame.Await -> ()
  | _ -> Alcotest.fail "b has trailing junk");
  (* And a stays dead: poison does not leak out, or heal, across
     another decoder's traffic. *)
  Frame.feed_string a (Frame.encode "ok");
  match Frame.next a with
  | Frame.Oversized _ -> ()
  | _ -> Alcotest.fail "a resynchronised across b's traffic"

(* ---------- health quantile edges ---------- *)

let test_health_quantile_edges () =
  (* Zero samples: quantiles are 0, never a scan off the end. *)
  let h0 = Health.create () in
  Alcotest.(check int) "empty count" 0 (Health.count h0);
  Alcotest.(check int) "empty quantile" 0 (Health.quantile h0 0.5);
  let s0 = Health.summarize h0 ~wall_s:1.0 in
  Alcotest.(check int) "empty p99" 0 s0.Health.p99_us;
  Alcotest.(check int) "empty max" 0 s0.Health.max_us;
  (* One sample: every quantile is that sample (the bucket bound is
     capped at the observed max), including clamped out-of-range q. *)
  let h1 = Health.create () in
  Health.record_latency h1 ~us:100.;
  List.iter
    (fun q ->
      Alcotest.(check int) "single-sample quantile" 100 (Health.quantile h1 q))
    [ -1.; 0.; 0.5; 0.99; 1.; 2. ];
  (* All-equal: p50 = p99 = max exactly, not merely within a bucket. *)
  let h2 = Health.create () in
  for _ = 1 to 1000 do
    Health.record_latency h2 ~us:250.
  done;
  let s2 = Health.summarize h2 ~wall_s:2.0 in
  Alcotest.(check int) "all-equal p50" 250 s2.Health.p50_us;
  Alcotest.(check int) "all-equal p99" 250 s2.Health.p99_us;
  Alcotest.(check int) "all-equal max" 250 s2.Health.max_us;
  Alcotest.(check (float 0.001)) "per_sec" 500. s2.Health.per_sec

(* ---------- the instance journal ---------- *)

let with_temp_path prefix f =
  let path = Filename.temp_file prefix ".tmp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_journal_exactly_once () =
  with_temp_path "bap_journal" (fun path ->
      let j = Journal.open_ ~path () in
      Alcotest.(check bool) "fresh journal active" true (Journal.active j);
      let s0 = spec_i 0 and s1 = spec_i 1 in
      (match Journal.accept j s0 with
      | `Logged -> ()
      | _ -> Alcotest.fail "first accept not `Logged");
      (match Journal.accept j s0 with
      | `Duplicate -> ()
      | _ -> Alcotest.fail "re-accept of a pending key not `Duplicate");
      (match Journal.accept j s1 with
      | `Logged -> ()
      | _ -> Alcotest.fail "distinct key not `Logged");
      Journal.respond j ~key:(Instance.key s0) "answer-bytes-0";
      (* First answer wins: a second respond must not change the bytes. *)
      Journal.respond j ~key:(Instance.key s0) "other-bytes";
      (match Journal.accept j s0 with
      | `Replay b ->
        Alcotest.(check string) "replay is the first journaled answer"
          "answer-bytes-0" b
      | _ -> Alcotest.fail "re-accept of an answered key not `Replay");
      Alcotest.(check int) "accepted" 2 (Journal.accepted j);
      Alcotest.(check int) "answered" 1 (Journal.answered j);
      Journal.close j;
      (* The next incarnation: answered keys replay the same bytes,
         pending keys surface as recovered, counts are the union. *)
      let j2 = Journal.open_ ~resume:true ~path () in
      Alcotest.(check int) "accepted survives reopen" 2 (Journal.accepted j2);
      Alcotest.(check int) "answered survives reopen" 1 (Journal.answered j2);
      (match Journal.recovered j2 with
      | [ (k, s) ] ->
        Alcotest.(check string) "recovered the pending key" (Instance.key s1) k;
        Alcotest.(check bool) "recovered spec round-trips" true (s = s1)
      | l ->
        Alcotest.fail
          (Printf.sprintf "recovered %d pending, want exactly 1" (List.length l)));
      (match Journal.accept j2 s0 with
      | `Replay b ->
        Alcotest.(check string) "replay across incarnations" "answer-bytes-0" b
      | _ -> Alcotest.fail "answered key lost across reopen");
      Journal.respond j2 ~key:(Instance.key s1) "answer-bytes-1";
      Alcotest.(check int) "recovery answered" 2 (Journal.answered j2);
      Journal.close j2)

let test_journal_degrades_loud () =
  (* An unwritable journal path (here: a directory) must degrade to
     "no durability" without failing the server — while the in-memory
     exactly-once table keeps working. The WAL side of the degradation
     is loud (stderr + wal.degraded telemetry); what we can assert
     in-process is that [active] reports the truth. *)
  let dir = Filename.temp_file "bap_wal" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let j = Journal.open_ ~path:dir () in
      Alcotest.(check bool) "unwritable path degrades" false (Journal.active j);
      (match Journal.accept j (spec_i 3) with
      | `Logged -> ()
      | _ -> Alcotest.fail "accept on a degraded journal");
      Journal.respond j ~key:(Instance.key (spec_i 3)) "bytes";
      (match Journal.accept j (spec_i 3) with
      | `Replay b -> Alcotest.(check string) "in-memory replay" "bytes" b
      | _ -> Alcotest.fail "degraded journal lost its table");
      Alcotest.(check int) "answered tracked in memory" 1 (Journal.answered j);
      Journal.close j)

(* ---------- explicit drop accounting ---------- *)

let write_request fd s =
  let wire = Frame.encode (Instance.request_json s) in
  let b = Bytes.of_string wire in
  ignore (Unix.write fd b 0 (Bytes.length b))

let test_dropped_disconnect_explicit () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* The client vanishes before any response can be delivered: close
     the response pipe's read half up front. Without a journal every
     accepted instance's answer is lost — and each loss must be counted
     at its drop site, never derived as accepted - responded. *)
  let run ~journal_path =
    let c2s_r, c2s_w = Unix.pipe () in
    let s2c_r, s2c_w = Unix.pipe () in
    Unix.close s2c_r;
    List.iter (write_request c2s_w) (List.init 3 spec_i);
    Unix.close c2s_w;
    let cfg = { (quiet_config ~jobs:1) with Server.journal_path } in
    let stats = Server.serve_fds cfg ~in_fd:c2s_r ~out_fd:s2c_w in
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ c2s_r; s2c_w ];
    stats
  in
  let bare = run ~journal_path:None in
  Alcotest.(check int) "bare: all three accepted" 3 bare.Server.accepted;
  Alcotest.(check int) "bare: none responded" 0 bare.Server.responded;
  Alcotest.(check int) "bare: every drop explicitly counted" 3
    bare.Server.dropped_disconnect;
  Alcotest.(check bool) "bare: not durable" false bare.Server.durable;
  (* The same vanish with a journal drops nothing: the answers are
     durable instead of delivered, and responded says so. *)
  with_temp_path "bap_drop" (fun jpath ->
      let durable = run ~journal_path:(Some jpath) in
      Alcotest.(check int) "durable: nothing dropped" 0
        durable.Server.dropped_disconnect;
      Alcotest.(check int) "durable: all answered into the journal" 3
        durable.Server.responded;
      Alcotest.(check bool) "durable flag" true durable.Server.durable)

(* ---------- crash-restart: the exactly-once oracle ---------- *)

let test_crash_restart_exactly_once () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  with_temp_path "bap_crash" (fun jpath ->
      with_temp_path "bap_sock" (fun spath ->
          let instances = 50 in
          let base =
            {
              (quiet_config ~jobs:2) with
              Server.journal_path = Some jpath;
              timeout_s = Some 5.;
            }
          in
          (* Incarnation 1 dies at its 8th answer point — work done,
             respond record not yet journaled: the exact window
             durability must cover. *)
          let hits = ref 0 in
          let cfg1 =
            {
              base with
              Server.kill9 =
                Some
                  (fun ~key:_ ->
                    incr hits;
                    !hits = 8);
            }
          in
          let inc1 =
            Domain.spawn (fun () ->
                match Server.serve_socket cfg1 ~path:spath with
                | _ -> None
                | exception Server.Kill9 key -> Some key)
          in
          (* The client rides out the crash window: seeded-backoff
             reconnects plus id-based retransmit rounds. *)
          let client =
            Domain.spawn (fun () ->
                Load.run_socket ~reconnect:400 ~retransmit:6 ~seed:11
                  ~path:spath ~instances
                  ~families:[ Instance.Pk; Instance.Es ]
                  ~n:4 ())
          in
          (match Domain.join inc1 with
          | Some _key -> ()
          | None -> Alcotest.fail "incarnation 1 outlived its kill point");
          (* Incarnation 2: resume from the journal, no chaos. It must
             re-dispatch the accepted-unanswered backlog before serving
             and answer retransmits of answered keys from the journal. *)
          let inc2 =
            Domain.spawn (fun () ->
                Server.serve_socket { base with Server.resume = true } ~path:spath)
          in
          let o = Domain.join client in
          Server.request_drain ~code:0;
          let stats2 = Domain.join inc2 in
          (* The oracle: union of responses across incarnations is
             exactly one byte-identical answer per instance. *)
          (match Load.failures ~exactly_once:true o with
          | [] -> ()
          | fs -> Alcotest.fail (String.concat "; " fs));
          Alcotest.(check int) "every instance answered ok" instances o.Load.ok;
          Alcotest.(check int) "no duplicates" 0 o.Load.duplicates;
          Alcotest.(check bool) "the crash forced reconnects" true
            (o.Load.retransmits > 0);
          Alcotest.(check bool) "incarnation 2 durable" true stats2.Server.durable;
          Alcotest.(check bool) "incarnation 2 recovered the backlog" true
            (stats2.Server.recovered > 0);
          Alcotest.(check bool) "retransmits answered from the journal" true
            (stats2.Server.replayed > 0);
          Alcotest.(check int) "journal union: accepted = responded"
            stats2.Server.accepted stats2.Server.responded;
          Alcotest.(check int) "journal union covers the whole plan" instances
            stats2.Server.accepted;
          Alcotest.(check int) "nothing dropped across incarnations" 0
            stats2.Server.dropped_disconnect))

(* ---------- the flight recorder ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

module Flight = Bap_servelib.Flight
module Memprobe = Bap_telemetry.Memprobe

let test_flight_wraparound () =
  let t = Flight.create ~capacity:4 () in
  Alcotest.(check int) "fresh ring is empty" 0 (List.length (Flight.entries t));
  for i = 0 to 9 do
    Flight.record t ~kind:"k" ~key:(Printf.sprintf "key%d" i) ~detail:""
  done;
  Alcotest.(check int) "recorded counts everything" 10 (Flight.recorded t);
  Alcotest.(check int) "retained is the capacity" 4 (Flight.retained t);
  Alcotest.(check int) "dropped = recorded - retained" 6 (Flight.dropped t);
  Alcotest.(check (list int)) "oldest-first window of the last 4" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Flight.seq) (Flight.entries t));
  (* The dump renders the same window and admits the overwrites. *)
  let h = Bap_servelib.Health.create () in
  let text =
    Flight.dump t ~gc:(Memprobe.snapshot ())
      ~health:(Bap_servelib.Health.summarize h ~wall_s:1.)
  in
  Alcotest.(check bool) "dump admits overwrites" true
    (contains text "6 overwritten");
  Alcotest.(check bool) "dump holds the oldest retained key" true
    (contains text "key6");
  Alcotest.(check bool) "dump dropped the overwritten key" false
    (contains text "key5");
  (* And the JSON form round-trips through the project parser. *)
  let module Json = Bap_telemetry.Json in
  let j = Json.parse (Flight.to_json t) in
  Alcotest.(check (option int)) "json recorded" (Some 10)
    (Json.to_int (Json.member "recorded" j));
  Alcotest.(check (option int)) "json dropped" (Some 6)
    (Json.to_int (Json.member "dropped" j));
  match Json.to_list (Json.member "entries" j) with
  | Some es -> Alcotest.(check int) "json window size" 4 (List.length es)
  | None -> Alcotest.fail "entries missing from flight json"

let test_flight_sigusr1_dump () =
  (* The live-inspection round-trip: SIGUSR1 lands while the loop is
     serving, the next loop head dumps the black box to the flight
     file, and the stream itself is untouched. *)
  with_temp_path "bap_flight" (fun dump_path ->
      Sys.remove dump_path;
      Server.install_signal_handlers ();
      let c2s_r, c2s_w = Unix.pipe () in
      let s2c_r, s2c_w = Unix.pipe () in
      let cfg =
        { (quiet_config ~jobs:1) with Server.flight_dump = Some dump_path }
      in
      let server =
        Domain.spawn (fun () -> Server.serve_fds cfg ~in_fd:c2s_r ~out_fd:s2c_w)
      in
      List.iter
        (fun s ->
          let wire = Frame.encode (Instance.request_json s) in
          let b = Bytes.of_string wire in
          ignore (Unix.write c2s_w b 0 (Bytes.length b)))
        (List.init 2 spec_i);
      (* Read both responses first: the server is provably live and past
         its startup (which discards stale pre-start signals). *)
      let dec = Frame.decoder () in
      let buf = Bytes.create 4096 in
      let got = ref 0 in
      while !got < 2 do
        (match Unix.read s2c_r buf 0 (Bytes.length buf) with
        | 0 -> Alcotest.fail "server closed before answering"
        | k -> Frame.feed dec buf ~pos:0 ~len:k);
        let rec drain () =
          match Frame.next dec with
          | Frame.Frame _ ->
            incr got;
            drain ()
          | Frame.Await | Frame.Oversized _ -> ()
        in
        drain ()
      done;
      Unix.kill (Unix.getpid ()) Sys.sigusr1;
      (* The dump lands at the next loop head; wait for the file rather
         than racing the signal's delivery point. *)
      let rec await tries =
        if Sys.file_exists dump_path then ()
        else if tries = 0 then Alcotest.fail "flight dump never appeared"
        else begin
          (try ignore (Unix.select [] [] [] 0.05)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          await (tries - 1)
        end
      in
      await 100;
      Unix.close c2s_w;
      let stats = Domain.join server in
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ c2s_r; s2c_r; s2c_w ];
      Alcotest.(check int) "stream served to completion" 2 stats.Server.responded;
      Alcotest.(check int) "nothing dropped" 0 stats.Server.dropped_disconnect;
      let text = read_file dump_path in
      Alcotest.(check bool) "dump names the signal" true (contains text "sigusr1");
      Alcotest.(check bool) "dump carries the gc snapshot" true
        (contains text "[flight] gc:");
      Alcotest.(check bool) "dump carries the health snapshot" true
        (contains text "[flight] health:"))

let test_flight_quarantine_dump () =
  (* A quarantined instance is the crash-adjacent event: the black box
     must be written at that moment, not only on demand. *)
  with_temp_path "bap_flightq" (fun dump_path ->
      Sys.remove dump_path;
      let c2s_r, c2s_w = Unix.pipe () in
      let s2c_r, s2c_w = Unix.pipe () in
      let wire = Frame.encode (Instance.request_json (spec_i 0)) in
      ignore
        (Unix.write c2s_w (Bytes.of_string wire) 0 (String.length wire));
      Unix.close c2s_w;
      let cfg =
        {
          (quiet_config ~jobs:1) with
          Server.flight_dump = Some dump_path;
          inject = Some (fun ~key:_ ~attempt:_ -> Some Supervisor.Inject_crash);
          retries = 1;
        }
      in
      let stats = Server.serve_fds cfg ~in_fd:c2s_r ~out_fd:s2c_w in
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ c2s_r; s2c_r; s2c_w ];
      Alcotest.(check int) "instance degraded, not lost" 1 stats.Server.degraded;
      Alcotest.(check bool) "quarantine dumped the black box" true
        (Sys.file_exists dump_path);
      let text = read_file dump_path in
      Alcotest.(check bool) "dump names the quarantine" true
        (contains text "quarantine");
      Alcotest.(check bool) "dump retains the admission" true
        (contains text "accept"))

let test_admin_stats_frame () =
  (* {"admin":"stats"} answered from server state: a typed Stats frame
     with counters, health, gc, and the flight window — and no effect
     on the instance ledger. *)
  let c2s_r, c2s_w = Unix.pipe () in
  let s2c_r, s2c_w = Unix.pipe () in
  let frames =
    [ Instance.request_json (spec_i 0); "{\"admin\":\"stats\"}" ]
  in
  List.iter
    (fun p ->
      let wire = Frame.encode p in
      ignore (Unix.write c2s_w (Bytes.of_string wire) 0 (String.length wire)))
    frames;
  Unix.close c2s_w;
  let stats = Server.serve_fds (quiet_config ~jobs:1) ~in_fd:c2s_r ~out_fd:s2c_w in
  Unix.close s2c_w;
  let dec = Frame.decoder () in
  let buf = Bytes.create 65536 in
  let rec slurp () =
    match Unix.read s2c_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
      Frame.feed dec buf ~pos:0 ~len:k;
      slurp ()
  in
  slurp ();
  let rec collect acc =
    match Frame.next dec with
    | Frame.Frame p -> collect (p :: acc)
    | Frame.Await | Frame.Oversized _ -> List.rev acc
  in
  let responses = collect [] in
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ c2s_r; s2c_r ];
  Alcotest.(check int) "one response per frame" 2 (List.length responses);
  Alcotest.(check int) "admin frame not counted as accepted" 1
    stats.Server.accepted;
  let module Json = Bap_telemetry.Json in
  let stats_resp =
    List.find
      (fun p ->
        match Json.to_string (Json.member "status" (Json.parse p)) with
        | Some "stats" -> true
        | _ -> false)
      responses
  in
  let j = Json.parse stats_resp in
  Alcotest.(check (option int)) "stats sees the accepted instance" (Some 1)
    (Json.to_int (Json.member "accepted" j));
  (match Json.member "gc" j with
  | Some _ -> ()
  | None -> Alcotest.fail "stats frame missing the gc snapshot");
  (match Json.member "health" j with
  | Some _ -> ()
  | None -> Alcotest.fail "stats frame missing the health snapshot");
  match Option.bind (Json.member "flight" j) (Json.member "recorded") with
  | Some r -> (
    match Json.to_int (Some r) with
    | Some n when n >= 1 -> ()
    | _ -> Alcotest.fail "flight window empty in stats frame")
  | None -> Alcotest.fail "stats frame missing the flight window"

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_torn_resume;
    Alcotest.test_case "frame: oversized prefix poisons the stream" `Quick
      test_oversized_poisons;
    Alcotest.test_case "frame: garbage payload = one rejection" `Quick
      test_garbage_payload_is_one_rejection;
    Alcotest.test_case "frame: garbage header = typed oversized" `Quick
      test_header_garbage_is_oversized;
    Alcotest.test_case "instance: request round-trip, all families" `Quick
      test_request_roundtrip;
    Alcotest.test_case "instance: envelope rejections carry the id" `Quick
      test_invalid_envelope;
    Alcotest.test_case "admission: sheds overload, stays FIFO" `Quick
      test_admission_sheds_overload;
    Alcotest.test_case "admission: draining gate" `Quick
      test_admission_draining_gate;
    Alcotest.test_case "dispatch: jobs 1 = jobs 4, byte-identical" `Quick
      test_dispatch_jobs_invariant;
    Alcotest.test_case "dispatch: doomed instance degrades alone" `Quick
      test_dispatch_degrades_doomed;
    Alcotest.test_case "serve: end-to-end clean oracle" `Quick
      test_end_to_end_clean;
    Alcotest.test_case "serve: end-to-end chaos oracle" `Quick
      test_end_to_end_chaos;
    Alcotest.test_case "serve: drain answers the backlog" `Quick
      test_drain_answers_backlog;
    Alcotest.test_case "frame: poison is per-decoder state" `Quick
      test_decoder_state_isolation;
    Alcotest.test_case "health: quantile edges (0, 1, all-equal)" `Quick
      test_health_quantile_edges;
    Alcotest.test_case "journal: accept/respond/replay across reopen" `Quick
      test_journal_exactly_once;
    Alcotest.test_case "journal: unwritable path degrades loudly" `Quick
      test_journal_degrades_loud;
    Alcotest.test_case "serve: disconnect drops are explicit, journal drops none"
      `Quick test_dropped_disconnect_explicit;
    Alcotest.test_case "serve: crash-restart answers exactly once" `Quick
      test_crash_restart_exactly_once;
    Alcotest.test_case "flight: ring wraparound keeps the newest window" `Quick
      test_flight_wraparound;
    Alcotest.test_case "flight: SIGUSR1 dumps mid-stream, stream unharmed" `Quick
      test_flight_sigusr1_dump;
    Alcotest.test_case "flight: quarantine dumps the black box" `Quick
      test_flight_quarantine_dump;
    Alcotest.test_case "serve: admin stats frame outside the ledger" `Quick
      test_admin_stats_frame;
  ]
