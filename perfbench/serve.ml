(* Workload `serve`: the real bap_serve daemon, journaled, driven over
   its stdin/stdout.

   The load is a closed loop: one client thread on one connection keeps
   a fixed window of 16 requests outstanding, sending the next request
   as soon as an answer arrives. The mix is Load.plan_specs' unauth, es
   and pk instances at n=4; auth is left out so that signature work
   stays the sweep's. The seed is folded into every instance's seed, so
   the daemon sees a different but equally sized workload per seed.

   After the timed phase the run exercises the journal the other way:
   a fixed number of crash cycles, each of which SIGKILLs the daemon
   with requests in flight, restarts it with --resume, and retransmits
   the unanswered requests plus a fixed sample of answered ones. The
   time from the kill to the resumed daemon's first answer is the
   recovery time. Every response is checked outside the timed intervals
   against a serial Instance.execute recomputation, and every request
   must be answered exactly once across incarnations. *)

module Instance = Bap_servelib.Instance
module Frame = Bap_servelib.Frame
module Load = Bap_servelib.Load
module Json = Bap_telemetry.Json

let window = 16

(* Timed requests per second of --seconds: the closed loop lasts about
   0.6-1.1 s per second at the 9-16k requests/s a shared 2-core host
   sustains. *)
let requests_per_second = 10_000

(* op_tail_ms is the [tail_q] quantile of each segment of [tail_segment]
   timed requests, median over the segments. p99 read whichever moments
   the shared host stalled the client or the daemon in: over the whole
   run it spread by half its median across ten runs, and even as a
   segment median by a fifth when the host was busy. The segment p90
   spread less than op_p50_ms (0.05 against 0.12 over eight calm runs).
   The whole-run p99 goes to stderr as context. *)
let tail_segment = 5_000
let tail_q = 0.9

let setups = 5
let preload = 8_000
let cycles = 7
let per_cycle = 200
let resample = 8

type daemon = {
  pid : int;
  inp : Unix.file_descr;
  out : Unix.file_descr;
  dec : Frame.decoder;
  err : string;
}

exception Daemon_gone

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~exe ~journal ~resume ~err ?metrics () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_fd =
    Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let args =
    [ exe; "--journal"; journal; "--jobs"; "1" ]
    @ (if resume then [ "--resume" ] else [])
    @ match metrics with Some m -> [ "--metrics-json"; m ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) in_r out_w err_fd in
  List.iter Unix.close [ in_r; out_w; err_fd ];
  live := pid :: !live;
  { pid; inp = in_w; out = out_r; dec = Frame.decoder (); err }

let rec write_all fd s pos len =
  if len > 0 then
    match Unix.write_substring fd s pos len with
    | k -> write_all fd s (pos + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> raise Daemon_gone

let chunk = Bytes.create 65536

(* The next response frame, or [None] at end of stream. *)
let rec recv d =
  match Frame.next d.dec with
  | Frame.Frame p -> Some p
  | Frame.Oversized _ -> None
  | Frame.Await -> (
    match Unix.read d.out chunk 0 (Bytes.length chunk) with
    | 0 -> None
    | k ->
      Frame.feed d.dec chunk ~pos:0 ~len:k;
      recv d
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv d)

let reap d =
  let rec drain acc = match recv d with Some p -> drain (p :: acc) | None -> List.rev acc in
  let rest = drain [] in
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  (try Unix.close d.inp with Unix.Unix_error _ -> ());
  Unix.close d.out;
  (rest, status)

(* End of input: the daemon answers its backlog and exits. *)
let finish d =
  Unix.close d.inp;
  reap d

let kill d =
  Unix.kill d.pid Sys.sigkill;
  reap d

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The "[serve] accepted=A responded=R dropped=D" and
   "[serve] journal: recovered=C replayed=P suppressed=S" lines of a
   daemon that exited cleanly. *)
let report_counts err =
  let lines = String.split_on_char '\n' (read_file err) in
  let scan fmt f =
    List.find_map (fun l -> try Some (Scanf.sscanf l fmt f) with Scanf.Scan_failure _ | End_of_file | Failure _ -> None) lines
  in
  ( scan "[serve] accepted=%d responded=%d dropped=%d" (fun a r d -> (a, r, d)),
    scan "[serve] journal: recovered=%d replayed=%d suppressed=%d" (fun c p s -> (c, p, s)) )

let expected_bytes spec =
  Instance.response_to_json
    (Instance.Done { id = spec.Instance.id; metrics = Instance.execute spec })

let run ~seed ~seconds ~sabotage ~work ~exe =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path name = Filename.concat work name in
  let timed = requests_per_second * seconds in
  let crash_n = preload + (cycles * (per_cycle + window)) in
  let total = setups + timed + crash_n in
  let specs =
    Load.plan_specs ~instances:total ~families:[ Instance.Unauth; Instance.Es; Instance.Pk ] ~n:4
    |> List.map (fun s -> { s with Instance.seed = (seed * 1_000_003) + s.Instance.seed })
    |> Array.of_list
  in
  let frames = Array.map (fun s -> Frame.encode (Instance.request_json s)) specs in
  let responses = Array.make total [] in
  let expected_count = Array.make total 1 in
  let sent_at = Array.make total nan in
  let latency = Array.make total nan in
  let stray = ref 0 in
  let note p =
    match Instance.response_id p with
    | Some id when id >= 0 && id < total -> responses.(id) <- p :: responses.(id)
    | _ -> incr stray
  in
  let send d id =
    sent_at.(id) <- Unix.gettimeofday ();
    write_all d.inp frames.(id) 0 (String.length frames.(id))
  in
  (* Closed loop over ids [lo, hi): [window] outstanding, stop after
     [stop_after] answers (default: all of them). *)
  let closed_loop ?stop_after d ~lo ~hi =
    let stop_after = Option.value stop_after ~default:(hi - lo) in
    let next = ref lo and answered = ref 0 in
    while !next < hi && !next - lo < window do
      send d !next;
      incr next
    done;
    while !answered < stop_after do
      match recv d with
      | None -> raise Daemon_gone
      | Some p ->
        let now = Unix.gettimeofday () in
        note p;
        (match Instance.response_id p with
        | Some id when id >= lo && id < hi ->
          latency.(id) <- now -. sent_at.(id);
          Span.record "request" ~start:sent_at.(id) ~stop:now
        | _ -> ());
        incr answered;
        if !next < hi then begin
          send d !next;
          incr next
        end
    done
  in
  let failures = ref [] in
  let failed = ref 0 in
  let fail k fmt =
    Printf.ksprintf
      (fun s ->
        failed := !failed + k;
        failures := s :: !failures)
      fmt
  in
  let check_report ~what ~want (counts, _) =
    match counts with
    | Some (a, r, d) when a = want && r = want && d = 0 -> ()
    | Some (a, r, d) ->
      fail (max 1 (abs (want - r) + d)) "serve: %s: accepted=%d responded=%d dropped=%d, want %d" what a r d want
    | None -> fail 1 "serve: %s: no final report" what
  in
  (* Set-up: daemon spawn to its first answer (process start, code
     fingerprint, journal open, one instance), several times; the last
     daemon serves the timed phase. *)
  let setup_journal = path "serve.journal" and setup_i = ref 0 in
  let metrics = if !Span.on then Some (path "serve-metrics.json") else None in
  let setup_times, d =
    Stat.repeat_setup setups
      ~close:(fun d -> List.iter note (fst (finish d)))
      (fun () ->
        let d =
          spawn ~exe ~journal:setup_journal ~resume:false ~err:(path "serve-timed.err") ?metrics ()
        in
        send d !setup_i;
        incr setup_i;
        Option.iter note (recv d);
        d)
  in
  (* Crash cycles run on a daemon and journal of their own, so that
     recovery reads a journal of the same size whatever the timed
     phase's throughput. One cycle follows each of [cycles] equal
     segments of the timed phase, so the recovery samples are spread
     over the run like the latency samples are. *)
  let lo = setups and hi = setups + timed in
  let crash_lo = hi in
  let incarnation = ref 0 in
  let start ~resume =
    incr incarnation;
    spawn ~exe ~journal:(path "serve-crash.journal") ~resume
      ~err:(path (Printf.sprintf "serve-crash-%d.err" !incarnation))
      ()
  in
  let preloaded = start ~resume:false in
  closed_loop preloaded ~lo:crash_lo ~hi:(crash_lo + preload);
  let rng = Bap_sim.Rng.create seed in
  let recovered = ref 0 and replayed = ref 0 in
  let crash_cycle c =
    let lo = crash_lo + preload + (c * (per_cycle + window)) in
    let hi = lo + per_cycle + window in
    let d = if c = 0 then preloaded else start ~resume:true in
    closed_loop d ~lo ~hi ~stop_after:per_cycle;
    let t_kill = Unix.gettimeofday () in
    List.iter note (fst (kill d));
    let lost = List.filter (fun id -> responses.(id) = []) (List.init (hi - lo) (( + ) lo)) in
    let sample = List.init resample (fun _ -> crash_lo + Bap_sim.Rng.int rng (lo - crash_lo)) in
    List.iter (fun id -> expected_count.(id) <- expected_count.(id) + 1) sample;
    (* The retransmits are followed by end of input, so the resumed
       daemon answers them and exits cleanly with its report. *)
    let d = start ~resume:true in
    List.iter (send d) (lost @ sample);
    Unix.close d.inp;
    let first = recv d in
    let t_first = Unix.gettimeofday () in
    Span.record "recovery" ~start:t_kill ~stop:t_first;
    Option.iter note first;
    List.iter note (fst (reap d));
    let ((_, journal) as counts) = report_counts d.err in
    check_report ~what:(Printf.sprintf "crash cycle %d" (c + 1)) ~want:(hi - crash_lo) counts;
    Option.iter
      (fun (c, p, _) ->
        recovered := !recovered + c;
        replayed := !replayed + p)
      journal;
    t_first -. t_kill
  in
  let segment k = lo + (timed * k / cycles) in
  let walls, recovery_times =
    List.split
      (List.init cycles (fun c ->
           let (), wall =
             Span.measure "closed_loop" (fun () -> closed_loop d ~lo:(segment c) ~hi:(segment (c + 1)))
           in
           (wall, crash_cycle c)))
  in
  let wall = List.fold_left ( +. ) 0. walls in
  let peak_rss = Stat.peak_rss_mb ~pid:(string_of_int d.pid) () in
  List.iter note (fst (finish d));
  check_report ~what:"timed daemon" ~want:(timed + 1) (report_counts (path "serve-timed.err"));
  let server_p50, server_p99 =
    match metrics with
    | None -> (0., 0.)
    | Some m ->
      let gauge name =
        match Json.parse (read_file m) with
        | j -> (
          match Json.to_int (Option.bind (Json.member "gauges" j) (Json.member name)) with
          | Some v -> float_of_int v
          | None -> nan)
        | exception Json.Parse _ -> nan
      in
      (gauge "serve.latency_p50_us", gauge "serve.latency_p99_us")
  in
  (* The oracle, outside every timed interval: every response byte-
     identical to a serial recomputation (two domains share the
     recomputation), every request answered exactly as often as sent
     to a daemon that had not answered it yet. *)
  if sabotage then begin
    let id = setups + (seed mod timed) in
    match responses.(id) with
    | p :: rest ->
      let b = Bytes.of_string p in
      let k = String.length p / 2 in
      Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 1));
      responses.(id) <- Bytes.to_string b :: rest
    | [] -> ()
  end;
  let judge lo hi =
    let bad = ref [] in
    for id = lo to hi - 1 do
      let want = expected_bytes specs.(id) in
      let got = responses.(id) in
      if List.length got <> expected_count.(id) || List.exists (( <> ) want) got then
        bad := id :: !bad
    done;
    !bad
  in
  let mid = total / 2 in
  let other = Domain.spawn (fun () -> judge 0 mid) in
  let bad = judge mid total @ Domain.join other in
  List.iter
    (fun id ->
      fail 1 "serve: request %d: %d response(s), want %d byte-identical to the recomputation" id
        (List.length responses.(id)) expected_count.(id))
    (List.sort compare bad);
  if !stray > 0 then fail !stray "serve: %d response(s) without a known id" !stray;
  let lat = Array.sub latency lo timed in
  let segments = max 1 (timed / tail_segment) in
  let tail = Stat.segment_quantile segments tail_q lat in
  let q, whole_tail = Stat.tail lat in
  Printf.eprintf
    "serve: %d timed requests, window %d; op_tail_ms is the median p%g of %d segments \
     (whole-run p%g %.4f ms); %d crash cycles\n"
    timed window (tail_q *. 100.) segments (q *. 100.) (whole_tail *. 1000.) cycles;
  {
    Outcome.attempted = total;
    failed = !failed;
    failures = List.rev !failures;
    e2e =
      [
        ("setup_s", Stat.median setup_times);
        ("time_s", wall);
        ("op_p50_ms", Stat.median lat *. 1000.);
        ("op_tail_ms", tail *. 1000.);
        ("inst_per_s", float_of_int timed /. wall);
        ("recovery_s", Stat.median (Array.of_list recovery_times));
        ("peak_rss_mb", peak_rss);
      ];
    layers =
      [
        ("serve.server_p50_us", server_p50);
        ("serve.server_p99_us", server_p99);
        ("serve.recovered", float_of_int !recovered);
        ("serve.replayed", float_of_int !replayed);
      ];
  }
