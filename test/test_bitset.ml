(* QCheck round-trips for the flat bitset against the obvious bool-array
   model: every operation the scalable core relies on (set/get,
   popcount, ascending iteration order, intersection, union, clear)
   must agree with the model on random contents. *)

module Bitset = Bap_sim.Bitset

let qcheck = Helpers.qcheck

(* (length, member list) with members possibly repeated. *)
let contents_gen =
  QCheck2.Gen.(
    let* n = int_range 0 200 in
    let* members = list_size (int_range 0 50) (int_range 0 (max 0 (n - 1))) in
    return (n, if n = 0 then [] else members))

let model ~n members =
  let a = Array.make n false in
  List.iter (fun j -> a.(j) <- true) members;
  a

let model_list m =
  let acc = ref [] in
  Array.iteri (fun j b -> if b then acc := j :: !acc) m;
  List.rev !acc

let prop_of_list_to_list =
  qcheck ~count:200 ~name:"of_list/to_list = sorted dedup" contents_gen
    (fun (n, members) ->
      let m = model ~n members in
      Bitset.to_list (Bitset.of_list n members) = model_list m)

let prop_get_matches_model =
  qcheck ~count:200 ~name:"get agrees with bool-array model" contents_gen
    (fun (n, members) ->
      let m = model ~n members in
      let b = Bitset.of_list n members in
      Array.for_all (fun j -> j) (Array.init n (fun j -> Bitset.get b j = m.(j))))

let ids_of_flags flags = List.concat (List.mapi (fun j b -> if b then [ j ] else []) flags)

(* Dense contents over up to 300 ids: each id with probability 1/2, plus
   every id at the top bit of its word (id mod 63 = 62, the sign bit of
   an OCaml int), which sparse contents rarely set. *)
let dense_gen =
  QCheck2.Gen.(
    let* n = int_range 1 300 in
    let* flags = list_repeat n bool in
    let top j = j mod Bitset.bits_per_word = Bitset.bits_per_word - 1 in
    return (n, ids_of_flags (List.mapi (fun j b -> b || top j) flags)))

let prop_cardinal =
  qcheck ~count:200 ~name:"cardinal = popcount of model"
    (QCheck2.Gen.oneof [ contents_gen; dense_gen ])
    (fun (n, members) ->
      let m = model ~n members in
      Bitset.cardinal (Bitset.of_list n members)
      = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 m)

(* The weighted tally against a per-id count: lengths across word
   boundaries, 0-6 sets (dense or sparse), multiplicities up to 2000,
   and thresholds over [1, total + 3], half of them at a subset sum of
   the multiplicities (an id's possible weight) or one off it, where
   the comparison flips. *)
let prop_at_least =
  qcheck ~count:500 ~name:"at_least = per-id weighted count"
    QCheck2.Gen.(
      let* n = int_range 1 300 in
      let set =
        oneof
          [ list_size (int_range 0 n) (int_range 0 (n - 1)); map ids_of_flags (list_repeat n bool) ]
      in
      let* sets = list_size (int_range 0 6) (pair set (int_range 0 2000)) in
      let total = List.fold_left (fun acc (_, m) -> acc + m) 0 sets in
      let* picks = list_repeat (List.length sets) bool in
      let* off = int_range (-1) 1 in
      let subset_sum =
        List.fold_left2 (fun acc (_, m) pick -> if pick then acc + m else acc) 0 sets picks
      in
      let* threshold =
        oneof [ int_range 1 (total + 3); return (min (total + 3) (max 1 (subset_sum + off))) ]
      in
      return (n, sets, threshold))
    (fun (n, sets, threshold) ->
      let weighted = List.map (fun (members, m) -> (Bitset.of_list n members, m)) sets in
      let weight j =
        List.fold_left (fun acc (s, m) -> if Bitset.get s j then acc + m else acc) 0 weighted
      in
      Bitset.to_list (Bitset.at_least ~length:n ~threshold weighted)
      = List.filter (fun j -> weight j >= threshold) (List.init n Fun.id))

let prop_iter_ascending =
  qcheck ~count:200 ~name:"iter visits ascending" contents_gen
    (fun (n, members) ->
      let b = Bitset.of_list n members in
      let itered =
        let acc = ref [] in
        Bitset.iter b ~f:(fun j -> acc := j :: !acc);
        List.rev !acc
      in
      itered = List.sort_uniq Int.compare members && itered = Bitset.to_list b)

let prop_set_clear_assign =
  qcheck ~count:200 ~name:"set/clear/assign track the model"
    QCheck2.Gen.(
      let* n = int_range 1 150 in
      let* ops = list_size (int_range 0 60) (pair (int_range 0 (n - 1)) bool) in
      return (n, ops))
    (fun (n, ops) ->
      let b = Bitset.create n in
      let m = Array.make n false in
      List.iter
        (fun (j, bit) ->
          m.(j) <- bit;
          if bit then Bitset.set b j else Bitset.clear b j)
        ops;
      let b2 = Bitset.create n in
      List.iter
        (fun (j, bit) ->
          Bitset.assign b2 j bit)
        ops;
      Bitset.to_list b = model_list m && Bitset.equal b b2)

let prop_inter_union =
  qcheck ~count:200 ~name:"inter/union_into match set algebra"
    QCheck2.Gen.(
      let* n = int_range 1 150 in
      let* xs = list_size (int_range 0 40) (int_range 0 (n - 1)) in
      let* ys = list_size (int_range 0 40) (int_range 0 (n - 1)) in
      return (n, xs, ys))
    (fun (n, xs, ys) ->
      let bx = Bitset.of_list n xs and by = Bitset.of_list n ys in
      let inter_ok =
        Bitset.to_list (Bitset.inter bx by)
        = List.filter (fun j -> List.mem j ys) (Bitset.to_list bx)
      in
      let u = Bitset.copy bx in
      Bitset.union_into ~into:u by;
      let union_ok =
        Bitset.to_list u = List.sort_uniq Int.compare (Bitset.to_list bx @ Bitset.to_list by)
      in
      inter_ok && union_ok)

let prop_copy_independent =
  qcheck ~count:100 ~name:"copy is independent; clear empties it" contents_gen
    (fun (n, members) ->
      let b = Bitset.of_list n members in
      let c = Bitset.copy b in
      List.iter (Bitset.clear c) members;
      Bitset.cardinal c = 0
      && Bitset.to_list c = []
      && Bitset.to_list b = Bitset.to_list (Bitset.of_list n members))

let test_bounds () =
  let b = Bitset.of_list 10 [ 3; 7 ] in
  Alcotest.(check bool) "mem in range" true (Bitset.mem b 3);
  Alcotest.(check bool) "mem out of range is false" false (Bitset.mem b 10);
  Alcotest.(check bool) "mem negative is false" false (Bitset.mem b (-1));
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Bitset.get: index 10 out of [0, 10)") (fun () ->
      ignore (Bitset.get b 10));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Bitset.create: negative length") (fun () ->
      ignore (Bitset.create (-1)));
  Alcotest.(check (list int)) "threshold 0 holds every id" [ 0; 1; 2 ]
    (Bitset.to_list (Bitset.at_least ~length:3 ~threshold:0 []));
  Alcotest.check_raises "tally length mismatch"
    (Invalid_argument "Bitset.at_least: length mismatch") (fun () ->
      ignore (Bitset.at_least ~length:11 ~threshold:1 [ (b, 1) ]))

let test_word_boundaries () =
  (* Exercise lengths around the word size explicitly. *)
  List.iter
    (fun n ->
      let everything = List.init n Fun.id in
      let b = Bitset.of_list n everything in
      Alcotest.(check int) (Printf.sprintf "full cardinal n=%d" n) n (Bitset.cardinal b);
      Alcotest.(check bool)
        (Printf.sprintf "full to_list n=%d" n)
        true
        (Bitset.to_list b = everything))
    [ 0; 1; Bitset.bits_per_word - 1; Bitset.bits_per_word; Bitset.bits_per_word + 1; 130 ]

let suite =
  [
    prop_of_list_to_list;
    prop_get_matches_model;
    prop_cardinal;
    prop_at_least;
    prop_iter_ascending;
    prop_set_clear_assign;
    prop_inter_union;
    prop_copy_independent;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "word-boundary lengths" `Quick test_word_boundaries;
  ]
