(* Reusable write-ahead log core.

   Extracted from the sweep journal (PR 4) so the serve layer can reuse
   the same digest-framed record / torn-tail machinery for its instance
   journal. A WAL is a header line followed by framed records:

     <magic> <fingerprint>\n
     rec <tag> <key> <payload-bytes> <md5 hex of payload>\n
     <payload>
     rec ...

   [magic] names the log kind ("bap-journal 2", "bap-serve-journal 1");
   the fingerprint makes a log written by a different build invalid as a
   whole. [tag] and [key] are caller-chosen space-free tokens; the
   digest makes any torn or damaged record — and everything after it —
   detectable. One flush per record is the
   crash-safety contract: after [append] returns, a SIGKILL cannot lose
   that record.

   Opening is best-effort: an unwritable path degrades to "no logging"
   (oc = None), but loudly — a stderr warning plus a telemetry instant —
   so an operator can tell durability is off (the silent version of this
   degradation was the ISSUE 9 satellite bug). *)

module Tel = Bap_telemetry.Telemetry

type record = { tag : string; key : string; payload : string }

type t = {
  wpath : string;
  magic : string;
  fp : string;
  mutable loaded : record list;
  mutable appends : int;
  mutable oc : out_channel option;
  wm : Mutex.t;
}

let header_of ~magic fp = Printf.sprintf "%s %s\n" magic fp

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let token_ok s = s <> "" && not (String.contains s ' ') && not (String.contains s '\n')

(* Parse the longest valid prefix. Returns the records found (in file
   order) and the byte offset where validity ends. A header mismatch
   validates zero bytes, discarding the stale log wholesale. *)
let parse_prefix ~magic ~fp s =
  let header = header_of ~magic fp in
  let hlen = String.length header in
  if String.length s < hlen || not (String.equal (String.sub s 0 hlen) header)
  then ([], 0)
  else begin
    let records = ref [] in
    let pos = ref hlen in
    let valid = ref hlen in
    let ok = ref true in
    while !ok do
      match String.index_from_opt s !pos '\n' with
      | None -> ok := false
      | Some eol -> (
        let line = String.sub s !pos (eol - !pos) in
        match String.split_on_char ' ' line with
        | [ "rec"; tag; key; len; digest ] -> (
          match int_of_string_opt len with
          | Some n when n >= 0 && eol + 1 + n <= String.length s ->
            let payload = String.sub s (eol + 1) n in
            if String.equal digest (Digest.to_hex (Digest.string payload))
            then begin
              records := { tag; key; payload } :: !records;
              pos := eol + 1 + n;
              valid := !pos
            end
            else ok := false
          | _ -> ok := false)
        | _ -> ok := false)
    done;
    (List.rev !records, !valid)
  end

let write_record oc { tag; key; payload } =
  Printf.fprintf oc "rec %s %s %d %s\n%s" tag key (String.length payload)
    (Digest.to_hex (Digest.string payload))
    payload

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* The loud half of best-effort degradation (ISSUE 9 satellite): the
   operator must be able to tell durability is off. *)
let warn_degraded ~magic ~path reason =
  Tel.Metrics.counter "wal.degraded" 1;
  Tel.instant ~cat:"exec" ~name:"wal_degraded"
    ~attrs:(fun () ->
      [ ("magic", Tel.Str magic); ("path", Tel.Str path);
        ("reason", Tel.Str reason) ])
    ();
  Printf.eprintf
    "[wal] WARNING: %s at %s is disabled (%s); running WITHOUT durability\n%!"
    magic path reason

let open_ ?(resume = false) ~magic ~path ~fingerprint () =
  let t =
    { wpath = path; magic; fp = fingerprint; loaded = []; appends = 0;
      oc = None; wm = Mutex.create () }
  in
  mkdir_p (Filename.dirname path);
  try
    if resume && Sys.file_exists path then begin
      let contents = read_file path in
      let parsed, valid = parse_prefix ~magic ~fp:fingerprint contents in
      t.loaded <- parsed;
      if valid = 0 then begin
        (* Stale build or corrupt header: start the log over. *)
        let oc = open_out_bin path in
        output_string oc (header_of ~magic fingerprint);
        flush oc;
        t.oc <- Some oc;
        t.loaded <- [];
        t
      end
      else begin
        (* Drop the torn tail, then append after the valid prefix. *)
        let truncated =
          valid = String.length contents
          || (try Unix.truncate path valid; true
              with Unix.Unix_error _ -> false)
        in
        if truncated then begin
          let oc =
            open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
          in
          t.oc <- Some oc
        end
        else begin
          (* Truncate failed, so the torn tail is stuck on disk. Appending
             after it would hide every later record behind the corrupt one
             on the next resume — rewrite the valid prefix fresh instead. *)
          let oc = open_out_bin path in
          output_string oc (header_of ~magic fingerprint);
          List.iter (fun r -> write_record oc r) parsed;
          flush oc;
          t.oc <- Some oc
        end;
        t
      end
    end
    else begin
      let oc = open_out_bin path in
      output_string oc (header_of ~magic fingerprint);
      flush oc;
      t.oc <- Some oc;
      t
    end
  with Sys_error msg ->
    warn_degraded ~magic ~path msg;
    t

let records t = t.loaded
let active t = t.oc <> None
let path t = t.wpath
let appends t = t.appends

let append t ~tag ~key payload =
  if not (token_ok tag && token_ok key) then
    invalid_arg "Wal.append: tag/key must be non-empty and space/newline-free";
  Mutex.lock t.wm;
  (match t.oc with
  | Some oc -> (
    try
      write_record oc { tag; key; payload };
      (* One flush per record is the crash-safety contract. *)
      flush oc;
      t.appends <- t.appends + 1
    with Sys_error msg ->
      t.oc <- None;
      warn_degraded ~magic:t.magic ~path:t.wpath msg)
  | None -> ());
  Mutex.unlock t.wm

let close_locked t =
  match t.oc with
  | Some oc ->
    (try flush oc with Sys_error _ -> ());
    close_out_noerr oc;
    t.oc <- None
  | None -> ()

let close t =
  Mutex.lock t.wm;
  close_locked t;
  Mutex.unlock t.wm

let signal_close t =
  (* Called from a signal handler, which may have interrupted the very
     thread that holds [t.wm] inside [append] — a blocking lock would
     self-deadlock. If the lock is contended we simply skip the close:
     every record is flushed as it is appended, so at most one
     in-progress record is lost, and the resume path discards a torn
     tail anyway. *)
  if Mutex.try_lock t.wm then begin
    close_locked t;
    Mutex.unlock t.wm
  end
