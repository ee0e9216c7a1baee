(* Layer probes for the traced run: each times one public call of one
   layer from outside, on a fixed input, and reports the median of
   several samples. They run after the workload, so they never perturb
   its end-to-end timings, and every traced run takes all of them so
   that each workload's trace carries the full layer picture. *)

module Common = Bap_experiments.Common
module S = Common.S
module B = Common.B
module Pki = Bap_crypto.Pki
module Rng = Bap_sim.Rng
module Adversary = Bap_sim.Adversary
module Bitset = Bap_sim.Bitset
module Inbox = Bap_sim.Inbox
module Gen = Bap_prediction.Gen
module Memprobe = Bap_telemetry.Memprobe
module Instance = Bap_servelib.Instance
module Frame = Bap_servelib.Frame
module Admission = Bap_servelib.Admission
module Dispatch = Bap_servelib.Dispatch
module Sjournal = Bap_servelib.Journal
module Wal = Bap_exec.Wal
module Cache = Bap_exec.Cache
module Pool = Bap_exec.Pool
module Supervisor = Bap_exec.Supervisor

let us s = s *. 1e6
let ms s = s *. 1e3

(* The n=31 executions of the repo's Bechamel set, one per protocol. *)
let core () =
  let n = 31 in
  let t = (n - 1) / 3 in
  let w = Common.make_workload ~rng:(Rng.create 4242) ~n ~t ~f:(t / 2) ~target_misclassified:2 () in
  let faulty = w.faulty and inputs = w.inputs and advice = w.advice in
  let silent = Adversary.silent in
  let run name f = (name, ms (Stat.per_call ~reps:5 ~budget:0.3 f)) in
  let wrapper_unauth () = S.run_unauth ~t ~faulty ~inputs ~advice ~adversary:silent () in
  let w0 = Memprobe.domain_minor_words () in
  ignore (Sys.opaque_identity (wrapper_unauth ()));
  let words = Memprobe.domain_minor_words () -. w0 in
  [
    run "core.classify_ms" (fun () ->
        S.R.run ~n ~faulty ~adversary:silent (fun ctx -> S.Classify_p.run ctx advice.(S.R.id ctx)));
    run "core.graded_unauth_ms" (fun () ->
        S.R.run ~n ~faulty ~adversary:silent (fun ctx ->
            S.Graded_unauth.run ctx ~t ~tag:0 inputs.(S.R.id ctx)));
    run "core.graded_auth_ms" (fun () ->
        let pki = Pki.create ~n in
        S.R.run ~n ~faulty ~adversary:silent (fun ctx ->
            let i = S.R.id ctx in
            S.Graded_auth.run ctx ~pki ~key:(Pki.key pki i) ~t ~tag:0 inputs.(i)));
    run "core.ba_class_unauth_ms" (fun () ->
        S.R.run ~n ~faulty ~adversary:silent (fun ctx ->
            let i = S.R.id ctx in
            let c = S.Classify_p.run ctx advice.(i) in
            S.Ba_class_unauth.run ctx ~t ~k:1 ~base_tag:0 inputs.(i) c));
    run "core.ba_class_auth_ms" (fun () ->
        let pki = Pki.create ~n in
        S.R.run ~n ~faulty ~adversary:silent (fun ctx ->
            let i = S.R.id ctx in
            let c = S.Classify_p.run ctx advice.(i) in
            S.Ba_class_auth.run ctx ~pki ~key:(Pki.key pki i) ~t ~k:1 ~base_tag:0 inputs.(i) c));
    run "core.early_stopping_ms" (fun () ->
        S.R.run ~n ~faulty ~adversary:silent (fun ctx ->
            let gc c ~tag v = S.Graded_unauth.run c ~t ~tag v in
            S.Early_stopping.run ctx ~gc ~gc_rounds:2 ~phases:(t + 1) ~base_tag:0
              inputs.(S.R.id ctx)));
    run "core.wrapper_unauth_ms" wrapper_unauth;
    run "core.wrapper_auth_ms" (fun () -> S.run_auth ~t ~faulty ~inputs ~advice ());
    run "core.dolev_strong_ms" (fun () -> B.run_dolev_strong ~t ~faulty ~inputs ());
    ("core.wrapper_unauth_words", words);
  ]

let crypto () =
  let pki = Pki.create ~n:17 in
  let key = Pki.key pki 3 in
  let payload = Bap_crypto.Encode.(tagged "probe" (pair (int 7) (str "value"))) in
  let s = Pki.sign key payload in
  [
    ("crypto.sign_us", us (Stat.per_call ~inner:1000 (fun () -> Pki.sign key payload)));
    ( "crypto.verify_us",
      us (Stat.per_call ~inner:1000 (fun () -> Pki.verify pki ~signer:3 ~payload s)) );
  ]

(* One broadcast-and-tally round through Runtime.run: every process
   broadcasts a bit and takes the plurality of what it received. *)
module R = Bap_sim.Runtime.Make (struct
  type t = int
end)

let one_round ~mode ~n () =
  R.run ~mode ~n ~faulty:[||] ~adversary:Adversary.silent
    ~group_key:(fun m -> Some (string_of_int m))
    ~msg_size:(fun _ -> 1)
    (fun ctx ->
      let inbox = R.broadcast ctx (R.id ctx mod 2) in
      Inbox.plurality (Inbox.first inbox ~f:Option.some) ~compare:Int.compare)

let sim () =
  let rng = Rng.create 17 in
  let big = 10_000 in
  let a = Bitset.init big (fun _ -> Rng.bool rng) and b = Bitset.init big (fun _ -> Rng.bool rng) in
  let votes = Array.init 1000 (fun i -> if i mod 7 = 0 then None else Some (i mod 3)) in
  [
    ("sim.round_counted_ms", ms (Stat.per_call (one_round ~mode:`Auto ~n:1000)));
    ("sim.round_concrete_ms", ms (Stat.per_call (one_round ~mode:`Concrete ~n:100)));
    ( "sim.bitset_inter_us",
      us (Stat.per_call ~inner:1000 (fun () -> Bitset.cardinal (Bitset.inter a b))) );
    ( "sim.plurality_us",
      us
        (Stat.per_call ~inner:100 (fun () ->
             Inbox.plurality (Inbox.votes votes) ~compare:Int.compare)) );
  ]

let prediction () =
  let faulty = Array.init 333 (fun i -> 3 * i) in
  [ ("prediction.gen_ms", ms (Stat.per_call ~reps:10 (fun () -> Gen.perfect ~n:1000 ~faulty))) ]

let serve ~work =
  let spec i family = { Instance.id = i; family; n = 4; f = i mod 2; m = i mod 2; seed = (7 * i) + 1 } in
  let families = [| Instance.Unauth; Instance.Es; Instance.Pk |] in
  let specs = Array.init 16 (fun i -> spec i families.(i mod 3)) in
  let payload = Instance.request_json specs.(0) in
  let stream = String.concat "" (Array.to_list (Array.map (fun s -> Frame.encode (Instance.request_json s)) specs)) in
  let decode () =
    let d = Frame.decoder () in
    Frame.feed_string d stream;
    let rec drain k = match Frame.next d with Frame.Frame _ -> drain (k + 1) | _ -> k in
    drain 0
  in
  let execute family = us (Stat.per_call ~inner:20 (fun () -> Instance.execute (spec 1 family))) in
  let response = Instance.Done { id = 1; metrics = Instance.execute specs.(1) } in
  let wal_path = Filename.concat work "probe.wal" in
  let wal = Wal.open_ ~magic:"perfbench-wal 1" ~path:wal_path ~fingerprint:"probe" () in
  let record = String.make 150 'r' in
  let append = us (Stat.per_call ~inner:200 (fun () -> Wal.append wal ~tag:"respond" ~key:"k" record)) in
  Wal.close wal;
  let dispatch =
    Supervisor.with_supervisor Supervisor.default_config (fun supervisor ->
        Pool.with_pool ~jobs:1 (fun pool ->
            let disp = Dispatch.create ~pool ~supervisor in
            let entries = Array.to_list (Array.map (fun spec -> { Admission.spec; arrival_us = 0. }) specs) in
            let batch = Stat.per_call ~reps:20 (fun () -> Dispatch.run disp entries) in
            let work = Stat.per_call ~reps:20 (fun () -> Array.map Instance.execute specs) in
            batch -. work))
  in
  (* A journal of the size the crash cycles leave behind, written by
     this process so that its code fingerprint matches on resume. *)
  let jpath = Filename.concat work "probe-serve.journal" in
  let j = Sjournal.open_ ~path:jpath () in
  let answer = Instance.response_to_json response in
  for i = 0 to Serve.preload + (Serve.cycles * (Serve.per_cycle + Serve.window)) - 1 do
    let s = spec i families.(i mod 3) in
    ignore (Sjournal.accept j s);
    Sjournal.respond j ~key:(Instance.key s) answer
  done;
  Sjournal.close j;
  [
    ("serve.frame_decode_us", us (Stat.per_call ~inner:100 decode) /. float_of_int (decode ()));
    ("serve.parse_us", us (Stat.per_call ~inner:1000 (fun () -> Instance.parse payload)));
    ("serve.execute_us.unauth", execute Instance.Unauth);
    ("serve.execute_us.es", execute Instance.Es);
    ("serve.execute_us.pk", execute Instance.Pk);
    ("serve.render_us", us (Stat.per_call ~inner:1000 (fun () -> Instance.response_to_json response)));
    ("exec.wal_append_us", append);
    ("serve.dispatch_us", us dispatch);
    ( "serve.journal_resume_ms",
      ms (Stat.per_call ~reps:5 (fun () -> Sjournal.close (Sjournal.open_ ~resume:true ~path:jpath ()))) );
    ("exec.code_fingerprint_ms", ms (Stat.per_call ~reps:3 Cache.code_fingerprint));
  ]

let all ~work = core () @ crypto () @ sim () @ prediction () @ serve ~work
