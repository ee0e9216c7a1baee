(* Order statistics, the host-speed reading and process memory. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let s = sorted xs in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let median xs = quantile xs 0.5

(* The highest conventional percentile that still has at least ten
   samples above it: p90 over a sweep's 119 cells, p75 over a scale
   run's instances, p99 over a serve run's requests (context only; see
   Serve.tail_q). A tail read from fewer
   samples is the slowest few operations, not a percentile. *)
let tail xs =
  let n = float_of_int (Array.length xs) in
  let q =
    match List.find_opt (fun q -> n *. (1. -. q) >= 10.) [ 0.99; 0.9; 0.75 ] with
    | Some q -> q
    | None -> 0.5
  in
  (q, quantile xs q)

(* The median over [k] consecutive equal segments of [xs] of each
   segment's [q] quantile: the quantile of a typical stretch of the run,
   which stalls of the shared host confined to a few stretches do not
   set. *)
let segment_quantile k q xs =
  let n = Array.length xs in
  median
    (Array.init k (fun i ->
         let lo = n * i / k in
         quantile (Array.sub xs lo ((n * (i + 1) / k) - lo)) q))

(* A fixed integer loop, timed before each workload as a reading of how
   fast the shared host runs right now. It is printed beside the results
   as context and never enters a metric. *)
let host_loop_ms () =
  let t0 = Unix.gettimeofday () in
  let x = ref 1 in
  for i = 1 to 30_000_000 do
    x := ((!x * 1103515245) + i) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  (Unix.gettimeofday () -. t0) *. 1000.

(* Peak resident set size (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

(* Run a workload's set-up [k] times, each under a "setup" span,
   releasing each result with [close] before the next: the set-up
   timings and the last result. *)
let repeat_setup k ~close f =
  let times = Array.make k nan in
  let last = ref None in
  for i = 0 to k - 1 do
    Option.iter close !last;
    last := None;
    let r, dt = Span.measure "setup" f in
    times.(i) <- dt;
    last := Some r
  done;
  (times, Option.get !last)

(* Median seconds per call of [f]: [inner] calls per sample, samples
   until both [reps] and [budget] seconds are reached. *)
let per_call ?(inner = 1) ?(reps = 5) ?(budget = 0.2) f =
  let samples = ref [] in
  let t_start = Unix.gettimeofday () in
  let k = ref 0 in
  while !k < reps || Unix.gettimeofday () -. t_start < budget do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do
      ignore (Sys.opaque_identity (f ()))
    done;
    samples := ((Unix.gettimeofday () -. t0) /. float_of_int inner) :: !samples;
    incr k
  done;
  median (Array.of_list !samples)
