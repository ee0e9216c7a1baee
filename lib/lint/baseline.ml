(* The grandfather file: a committed JSON list of known findings.

   The gate fails only on findings absent from the baseline, so
   pre-existing debt does not block unrelated PRs while every *new*
   violation does. Entries are keyed on (rule, file, line) — precise
   enough to pin a site, cheap to regenerate with --update-baseline
   when line numbers drift. Stale entries (baselined findings that no
   longer occur) are reported so the file shrinks over time instead of
   fossilizing. *)

module Json = Bap_telemetry.Json

type entry = { rule_id : string; file : string; line : int }

let entry_of_finding (f : Finding.t) =
  { rule_id = f.Finding.rule_id; file = f.Finding.file; line = f.Finding.line }

let compare_entry a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else String.compare a.rule_id b.rule_id

let to_json entries =
  let entry e =
    Printf.sprintf "    {\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d}"
      (Json.escape e.rule_id) (Json.escape e.file) e.line
  in
  Printf.sprintf "{\n  \"version\": 1,\n  \"findings\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map entry (List.sort_uniq compare_entry entries)))

let of_json text =
  let j = Json.parse text in
  match Json.to_list (Json.member "findings" j) with
  | None -> invalid_arg "lint baseline: missing \"findings\" array"
  | Some es ->
    List.map
      (fun e ->
        match
          ( Json.to_string (Json.member "rule" e),
            Json.to_string (Json.member "file" e),
            Json.to_int (Json.member "line" e) )
        with
        | Some rule_id, Some file, Some line -> { rule_id; file; line }
        | _ -> invalid_arg "lint baseline: malformed entry")
      es

let load path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_json text

let save path findings =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json (List.map entry_of_finding findings)))

type diff = {
  fresh : Finding.t list;  (** Findings not covered by the baseline. *)
  stale : entry list;  (** Baseline entries that no longer fire. *)
  grandfathered : int;  (** Findings matched by the baseline. *)
}

let diff ~baseline findings =
  let covers e (f : Finding.t) =
    e.rule_id = f.Finding.rule_id && e.file = f.Finding.file && e.line = f.Finding.line
  in
  let fresh =
    List.filter (fun f -> not (List.exists (fun e -> covers e f) baseline)) findings
  in
  let stale =
    List.filter (fun e -> not (List.exists (fun f -> covers e f) findings)) baseline
    |> List.sort compare_entry
  in
  {
    fresh = List.sort Finding.compare_finding fresh;
    stale;
    grandfathered = List.length findings - List.length fresh;
  }
