(* In-memory spans for the traced run.

   Every span is recorded by the benchmark itself, around a call into
   one of the repo's public functions: the program under test is never
   instrumented. Spans stay in memory (name, start, end, parent) and are
   written out as JSONL once the run is over, so tracing costs two clock
   reads and one list cell per span. With tracing off [measure] still
   times the call (the untraced run needs its latencies) but keeps
   nothing. *)

type t = { id : int; name : string; parent : int; start : float; stop : float }

let on = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let now = Unix.gettimeofday
let origin = now ()

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !open_ids with p :: _ -> p | [] -> -1

(* [measure name f] is [(f (), seconds)]; when tracing, also a span
   nested under the innermost open one. *)
let measure name f =
  let id = if !on then fresh_id () else -1 in
  let parent = current () in
  if !on then open_ids := id :: !open_ids;
  let start = now () in
  let finish () =
    let stop = now () in
    if !on then begin
      open_ids := List.tl !open_ids;
      recorded := { id; name; parent; start; stop } :: !recorded
    end;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let span name f = fst (measure name f)

(* A span whose ends were stamped elsewhere — a request's send and its
   response arrive in different iterations of the client loop. *)
let record name ~start ~stop =
  if !on then
    recorded :=
      { id = fresh_id (); name; parent = current (); start; stop } :: !recorded

let busy name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0. !recorded

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f}\n"
            s.id
            (Bap_telemetry.Json.escape s.name)
            s.parent
            ((s.start -. origin) *. 1e6)
            ((s.stop -. origin) *. 1e6))
        (List.rev !recorded))
