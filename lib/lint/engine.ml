(* The driver logic behind bin/bap_lint.exe: discover sources, run the
   rule walk on each, add the file-set checks, and keep everything
   deterministic (directory listings are sorted — Sys.readdir order is
   unspecified, and a linter that cares about Hashtbl orderings had
   better not depend on readdir's). *)

let scanned_roots = [ "lib"; "bin"; "test" ]

let rec walk_dir acc dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then acc
  else
    Array.to_list (Sys.readdir dir)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           let full = Filename.concat dir entry in
           if Sys.is_directory full then walk_dir acc full else full :: acc)
         acc

(* Repo-relative paths with '/' separators, sorted. *)
let discover ~root =
  let rel full =
    let root_pfx = Filename.concat root "" in
    let s =
      if String.length full >= String.length root_pfx
         && String.sub full 0 (String.length root_pfx) = root_pfx
      then String.sub full (String.length root_pfx) (String.length full - String.length root_pfx)
      else full
    in
    String.map (fun c -> if c = '\\' then '/' else c) s
  in
  let files =
    List.fold_left (fun acc d -> walk_dir acc (Filename.concat root d)) [] scanned_roots
  in
  let by_ext ext =
    files
    |> List.filter (fun f -> Filename.check_suffix f ext)
    |> List.map rel
    |> List.sort String.compare
  in
  (by_ext ".ml", by_ext ".mli")

let lint_string ~path text = Rules.check (Source.parse ~path text)

let lint_tree ~root =
  let mls, mlis = discover ~root in
  let per_file =
    List.concat_map (fun ml -> Rules.check (Source.load ~root ml)) mls
  in
  let interfaces = Rules.check_interfaces ~mls ~mlis in
  List.sort Finding.compare_finding (per_file @ interfaces)
