(* Crash-safe write-ahead journal for sweeps.

   Every completed cell is appended as one framed record and flushed
   before the sweep moves on, so a SIGKILL (or CI timeout, or Ctrl-C)
   loses at most the cells that had not finished. On resume the valid
   prefix is replayed, a torn tail is truncated away, and the sweep
   re-runs only what is missing — producing byte-identical tables to an
   uninterrupted run at any --jobs level, because rendering order comes
   from the plan, never from completion order. The journal is the one
   store of cell results: re-running a build replays every cell from it.

   The framing, torn-tail truncation, per-record flush, and loud
   best-effort degradation all live in the shared {!Wal} core (extracted
   in PR 9 so the serve layer's instance journal reuses them); this
   module owns only the sweep-specific parts: cell addressing, row
   payload codec, and at-most-once dedup of addresses. Records are
   tagged "cell" and keyed by the Cache.cell_address of the cell under
   the journal's fingerprint; a journal written by a different build
   fails the WAL header check and is discarded wholesale, so a rebuild
   recomputes every cell. *)

type t = {
  wal : Wal.t;
  entries : (string, Cache.rows) Hashtbl.t;
  fp : string;
  jm : Mutex.t;
}

let default_path = Filename.concat "results" "sweep.journal"
let magic = "bap-journal 2"

let open_ ?(resume = false) ~path ~fingerprint () =
  let wal = Wal.open_ ~resume ~magic ~path ~fingerprint () in
  let entries = Hashtbl.create 64 in
  List.iter
    (fun (r : Wal.record) ->
      if String.equal r.tag "cell" then
        match Cache.decode_rows r.payload with
        | Some rows -> Hashtbl.replace entries r.key rows
        | None -> ())
    (Wal.records wal);
  { wal; entries; fp = fingerprint; jm = Mutex.create () }

let find t addr = Hashtbl.find_opt t.entries addr

let append t addr rows =
  (* The dedup check and the table update must both sit inside the lock:
     append runs concurrently from every pool worker, and OCaml 5's
     Hashtbl is not domain-safe — a racing replace/resize can corrupt
     the table. (The WAL has its own lock, but the dedup decision and
     the write must be atomic together.) *)
  Mutex.lock t.jm;
  if not (Hashtbl.mem t.entries addr) then begin
    Bap_telemetry.Telemetry.Metrics.counter "journal.appends" 1;
    Hashtbl.replace t.entries addr rows;
    Wal.append t.wal ~tag:"cell" ~key:addr (Cache.encode_rows rows)
  end;
  Mutex.unlock t.jm

let address t = Cache.cell_address ~fingerprint:t.fp
let entries t = Hashtbl.length t.entries
let path t = Wal.path t.wal
let close t = Wal.close t.wal

let signal_close t =
  (* Delegates to the WAL's try-lock close; see {!Wal.signal_close} for
     why a blocking lock would self-deadlock under a signal handler. *)
  Wal.signal_close t.wal
