type rows = string list list

let code_fingerprint () =
  match Digest.file Sys.executable_name with
  | d -> Digest.to_hex d
  | exception Sys_error _ -> "no-executable-fingerprint"

let cell_address ~fingerprint ~exp_id ~scope ~cell_key =
  Digest.to_hex
    (Digest.string (String.concat "\x00" [ fingerprint; exp_id; scope; cell_key ]))

(* Row payload, line oriented:
     <field-count>TAB<escaped field>TAB...   (one line per row)
   Fields go through String.escaped, which escapes tabs and newlines, so
   splitting on the literal TAB is unambiguous. *)

let encode_rows rows =
  let b = Buffer.create 256 in
  List.iter
    (fun row ->
      Buffer.add_string b
        (String.concat "\t"
           (string_of_int (List.length row) :: List.map String.escaped row));
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let decode_rows s =
  let lines =
    (* A well-formed payload ends in '\n'; the final split fragment is
       the empty string, not a row. *)
    match String.split_on_char '\n' s with
    | ls when List.length ls > 0 && String.equal (List.nth ls (List.length ls - 1)) "" ->
      List.filteri (fun i _ -> i < List.length ls - 1) ls
    | ls -> ls
  in
  let parse_row line =
    match String.split_on_char '\t' line with
    | count :: fields -> (
      match int_of_string_opt count with
      | Some c when c = List.length fields -> (
        try Some (List.map Scanf.unescaped fields)
        with Scanf.Scan_failure _ | Failure _ -> None)
      | _ -> None)
    | [] -> None
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | l :: ls -> ( match parse_row l with Some r -> go (r :: acc) ls | None -> None)
  in
  go [] lines
