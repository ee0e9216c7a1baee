module Inbox = Bap_sim.Inbox
module Bitset = Bap_sim.Bitset

let parse = function `A x -> Some x | `B -> None

(* The same six-sender inbox in both representations: senders 0 and 2
   broadcast [`A 1], sender 4 sent [`B; `A 3], sender 1 is a per-sender
   direct entry, senders 3 and 5 sent nothing. Every reading operation
   must agree between the two. *)
let slots = [| [ `A 1 ]; [ `A 7; `A 8 ]; [ `A 1 ]; []; [ `B; `A 3 ]; [] |]
let concrete () = Inbox.concrete (Array.copy slots)

let counted () =
  Inbox.counted ~n:6
    ~groups:
      [|
        ([ `A 1 ], Bitset.of_list 6 [ 0; 2 ]); ([ `B; `A 3 ], Bitset.of_list 6 [ 4 ]);
      |]
    ~direct:[| (1, [ `A 7; `A 8 ]) |]

let both name check =
  check (name ^ " (concrete)") (concrete ());
  check (name ^ " (counted)") (counted ())

(* Per-sender views rebuilt through the walks. *)
let view inbox =
  let arr = Array.make (Inbox.size inbox) [] in
  Inbox.iteri inbox ~f:(fun s msgs -> arr.(s) <- msgs);
  arr

let votes_view n votes =
  let arr = Array.make n None in
  Inbox.votes_iteri votes ~f:(fun s v -> arr.(s) <- Some v);
  arr

let test_get () =
  both "get" (fun name inbox ->
      Array.iteri
        (fun s expected ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s sender %d" name s)
            (List.filter_map parse expected)
            (List.filter_map parse (Inbox.get inbox s)))
        slots)

let test_iteri_rebuilds () =
  both "iteri view" (fun name inbox ->
      let got = view inbox in
      Alcotest.(check (array int)) (name ^ " lengths") (Array.map List.length slots)
        (Array.map List.length got);
      Alcotest.(check (array (list int)))
        name
        (Array.map (List.filter_map parse) slots)
        (Array.map (List.filter_map parse) got))

let test_iteri_keeps_every_message () =
  both "iteri messages" (fun name inbox ->
      Alcotest.(check (array (list int)))
        name
        [| [ 1 ]; [ 7; 8 ]; [ 1 ]; []; [ 3 ]; [] |]
        (Array.map (List.filter_map parse) (view inbox)))

let test_iteri_skips_silent () =
  both "iteri" (fun name inbox ->
      let seen = ref [] in
      Inbox.iteri inbox ~f:(fun s msgs -> seen := (s, List.length msgs) :: !seen);
      Alcotest.(check (list (pair int int)))
        name
        [ (0, 1); (1, 2); (2, 1); (4, 2) ]
        (List.rev !seen))

let test_first_takes_one_per_sender () =
  both "first" (fun name inbox ->
      let got = votes_view 6 (Inbox.first inbox ~f:parse) in
      Alcotest.(check (array (option int)))
        name
        [| Some 1; Some 7; Some 1; None; Some 3; None |]
        got)

let test_firsti () =
  both "firsti" (fun name inbox ->
      let got =
        votes_view 6 (Inbox.firsti inbox ~f:(fun s m -> if s = 1 then None else parse m))
      in
      Alcotest.(check (array (option int)))
        name
        [| Some 1; None; Some 1; None; Some 3; None |]
        got)

let test_count_and_plurality () =
  both "count/plurality" (fun name inbox ->
      let votes = Inbox.first inbox ~f:parse in
      Alcotest.(check int) (name ^ " count 1") 2 (Inbox.count votes ~eq:Int.equal 1);
      Alcotest.(check int) (name ^ " count 9") 0 (Inbox.count votes ~eq:Int.equal 9);
      Alcotest.(check (option (pair int int)))
        (name ^ " plurality")
        (Some (1, 2))
        (Inbox.plurality votes ~compare:Int.compare))

let senders votes =
  let acc = ref [] in
  Inbox.votes_iteri votes ~f:(fun s _ -> acc := s :: !acc);
  List.rev !acc

let test_votes_iteri_and_restrict () =
  both "votes_iteri/restrict" (fun name inbox ->
      let votes = Inbox.first inbox ~f:parse in
      Alcotest.(check (list int)) (name ^ " senders") [ 0; 1; 2; 4 ] (senders votes);
      let kept = Inbox.restrict votes ~keep:(Bitset.of_list 6 [ 1; 2; 3 ]) in
      Alcotest.(check (list int)) (name ^ " restricted") [ 1; 2 ] (senders kept);
      Alcotest.(check (array (option int)))
        (name ^ " restricted votes")
        [| None; Some 7; Some 1; None; None; None |]
        (votes_view 6 kept))

let test_fold_weighted () =
  both "fold_weighted" (fun name inbox ->
      let votes = Inbox.first inbox ~f:parse in
      let total, weight =
        Inbox.fold_weighted votes ~init:(0, 0) ~f:(fun (s, w) v mult ->
            (s + (v * mult), w + mult))
      in
      Alcotest.(check (pair int int)) name (12, 4) (total, weight))

let test_votes_mapi () =
  both "votes_mapi" (fun name inbox ->
      let votes = Inbox.first inbox ~f:parse in
      let doubled =
        Inbox.votes_mapi votes ~f:(fun s v ->
            match v with Some x when s <> 1 -> Some (2 * x) | _ -> None)
      in
      Alcotest.(check (array (option int)))
        name
        [| Some 2; None; Some 2; None; Some 6; None |]
        (votes_view 6 doubled))

let test_plain_votes () =
  let votes = Inbox.votes [| Some 5; Some 3; Some 5; Some 3; Some 1 |] in
  (* tie between 5 and 3 broken towards the smaller value *)
  Alcotest.(check (option (pair int int)))
    "tie to smallest"
    (Some (3, 2))
    (Inbox.plurality votes ~compare:Int.compare);
  Alcotest.(check (option (pair int int)))
    "all none" None
    (Inbox.plurality (Inbox.votes [| None; None |]) ~compare:Int.compare);
  Alcotest.(check (list int))
    "sender ids" [ 0; 2; 4 ]
    (senders (Inbox.votes [| Some 'x'; None; Some 'y'; None; Some 'z' |]))

let suite =
  [
    Alcotest.test_case "get on both representations" `Quick test_get;
    Alcotest.test_case "iteri rebuilds every slot" `Quick test_iteri_rebuilds;
    Alcotest.test_case "iteri keeps every message" `Quick test_iteri_keeps_every_message;
    Alcotest.test_case "iteri skips silent senders" `Quick test_iteri_skips_silent;
    Alcotest.test_case "first takes one per sender" `Quick test_first_takes_one_per_sender;
    Alcotest.test_case "firsti is sender-aware" `Quick test_firsti;
    Alcotest.test_case "count and plurality" `Quick test_count_and_plurality;
    Alcotest.test_case "votes_iteri and restrict" `Quick test_votes_iteri_and_restrict;
    Alcotest.test_case "fold_weighted" `Quick test_fold_weighted;
    Alcotest.test_case "votes_mapi" `Quick test_votes_mapi;
    Alcotest.test_case "plain vote arrays" `Quick test_plain_votes;
  ]
