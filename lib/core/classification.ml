module Advice = Bap_prediction.Advice
module Inbox = Bap_sim.Inbox

let majority_threshold n = (n + 2) / 2

let vote ~n received =
  (* One weighted entry per distinct vector (the counted inbox presents
     each with its sender multiplicity), tallied word-parallel: the
     classify round costs O(groups * log n * n/63) per process, with no
     per-id count array. *)
  let votes =
    Inbox.fold_weighted received ~init:[] ~f:(fun acc a mult ->
        if Advice.length a = n then (a, mult) :: acc else acc)
  in
  Advice.at_least ~n ~threshold:(majority_threshold n) votes

let pi_prefix c len =
  (* Honest ids ascending, then faulty ids ascending, each pass stopping
     once the prefix is full: a caller that reads the first blocks pays
     for those blocks, not for n. *)
  let n = Advice.length c in
  let order = Array.make (min len n) 0 in
  let filled = ref 0 in
  let take honest =
    let i = ref 0 in
    while !filled < Array.length order && !i < n do
      if Advice.get c !i = honest then begin
        order.(!filled) <- !i;
        incr filled
      end;
      incr i
    done
  in
  take true;
  take false;
  order

let pi c = pi_prefix c (Advice.length c)

let position c i =
  let order = pi c in
  let rec find j = if order.(j) = i then j else find (j + 1) in
  find 0

let misclassified_by ~faulty c =
  let n = Advice.length c in
  let truth = Advice.ground_truth ~n ~faulty in
  Advice.error_positions ~truth c

let misclassified_union ~n ~faulty ~honest_classifications =
  let seen = Array.make n false in
  List.iter
    (fun (_, c) -> List.iter (fun j -> seen.(j) <- true) (misclassified_by ~faulty c))
    honest_classifications;
  let acc = ref [] in
  for j = n - 1 downto 0 do
    if seen.(j) then acc := j :: !acc
  done;
  !acc

let k_counts ~n ~faulty ~honest_classifications =
  let union = misclassified_union ~n ~faulty ~honest_classifications in
  let is_faulty = Array.make n false in
  Array.iter (fun j -> is_faulty.(j) <- true) faulty;
  let k_f = List.length (List.filter (fun j -> is_faulty.(j)) union) in
  let k_h = List.length union - k_f in
  (List.length union, k_f, k_h)

let common_window ~honest_classifications ~l ~r =
  match honest_classifications with
  | [] -> []
  | (_, c0) :: _ ->
    let in_window c =
      let order = pi c in
      let members = ref [] in
      for j = min r (Array.length order - 1) downto l do
        members := order.(j) :: !members
      done;
      !members
    in
    let first = in_window c0 in
    List.filter
      (fun id ->
        List.for_all (fun (_, c) -> List.mem id (in_window c)) honest_classifications)
      first
    |> List.sort Int.compare
