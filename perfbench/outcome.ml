(* What one workload run hands back to Bench for printing. *)

type t = {
  attempted : int;  (** operations the oracle judged *)
  failed : int;  (** of those, operations whose output was wrong or missing *)
  failures : string list;  (** what the oracle found, for stderr *)
  e2e : (string * float) list;  (** every end-to-end metric *)
  layers : (string * float) list;
      (** per-layer values only this workload measures (traced run) *)
}

(* Run [f] with its stdout redirected into [path]; the captured bytes.
   The experiment renderers print, so this is how their tables are read
   back for the byte-identity oracle. *)
let capture_stdout path f =
  flush stdout;
  Format.pp_print_flush Format.std_formatter ();
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Format.pp_print_flush Format.std_formatter ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  In_channel.with_open_bin path In_channel.input_all

let md5 s = Digest.to_hex (Digest.string s)
