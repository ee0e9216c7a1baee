(* A round's inbox in one of two representations:

   - [Concrete]: the classic per-sender array of message lists.
   - [Counted]: the scalable-core aggregate - identical honest
     broadcasts collapse into (payload, sender bitset) groups, plus a
     sparse sorted array of per-sender overrides. A sender appears
     either in exactly one group or in [direct], never both; a sender in
     neither delivered nothing.

   Every reading operation is defined so that the two representations of
   the same traffic are observably identical; the runtime's differential
   tests assert this end to end.

   The one counted inbox the runtime hands every recipient of a round
   carries a memo: results of derivations that are pure in (inbox,
   argument), typed by their key, so no value is ever cast. *)

type ('a, 'b) key = ('a * 'b) Type.Id.t

type binding = Binding : ('a, 'b) key * 'a * 'b -> binding
type memo = { mutable bindings : binding list }

type 'msg t =
  | Concrete of 'msg list array
  | Counted of {
      n : int;
      groups : ('msg list * Bitset.t) array;
      direct : (int * 'msg list) array;  (* sorted by sender, ascending *)
      memo : memo option;  (* [Some] on the shared inbox only *)
    }

type 'a votes =
  | Varr of 'a option array
  | Vcnt of {
      n : int;
      groups : ('a option * Bitset.t) array;
      direct : (int * 'a option) array;  (* sorted by sender, ascending *)
    }

let concrete arr = Concrete arr

let counted ~n ~groups ~direct = Counted { n; groups; direct; memo = None }
let shared ~n ~groups ~direct = Counted { n; groups; direct; memo = Some { bindings = [] } }

let size = function Concrete arr -> Array.length arr | Counted { n; _ } -> n

let key () = Type.Id.make ()

let rec lookup :
    type a b. (a, b) key -> eq:(a -> a -> bool) -> a -> binding list -> b option =
 fun key ~eq arg -> function
  | [] -> None
  | Binding (key', arg', result) :: rest -> (
    match Type.Id.provably_equal key key' with
    | Some Type.Equal when eq arg arg' -> Some result
    | Some Type.Equal | None -> lookup key ~eq arg rest)

let memo t key ~eq arg f =
  match t with
  | Counted { memo = Some m; _ } -> (
    match lookup key ~eq arg m.bindings with
    | Some result -> result
    | None ->
      let result = f t arg in
      m.bindings <- Binding (key, arg, result) :: m.bindings;
      result)
  | Counted { memo = None; _ } | Concrete _ -> f t arg

(* Binary search over a sparse sorted-by-sender array. *)
let find_sparse arr sender =
  let lo = ref 0 and hi = ref (Array.length arr - 1) and found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s, v = arr.(mid) in
    if s = sender then begin
      found := Some v;
      lo := !hi + 1
    end
    else if s < sender then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let get t sender =
  match t with
  | Concrete arr -> arr.(sender)
  | Counted { n; groups; direct; _ } ->
    if sender < 0 || sender >= n then invalid_arg "Inbox.get: sender out of range";
    (match find_sparse direct sender with
    | Some msgs -> msgs
    | None ->
      let rec scan i =
        if i >= Array.length groups then []
        else
          let msgs, senders = groups.(i) in
          if Bitset.get senders sender then msgs else scan (i + 1)
      in
      scan 0)

(* Every (sender, entry) of a counted representation, ascending by
   sender: the union of the groups' disjoint sender sets (a bitset of
   n/63 words), each member looked up in the groups, merged with the
   sorted direct entries. One step per entry, never an n-slot view. *)
let walk ~n groups direct ~f =
  let d = ref 0 in
  let direct_below s =
    while !d < Array.length direct && fst direct.(!d) < s do
      let s', x = direct.(!d) in
      f s' x;
      incr d
    done
  in
  let rec owner s i =
    match groups.(i) with x, set when Bitset.get set s -> x | _ -> owner s (i + 1)
  in
  let grouped = Bitset.create n in
  Array.iter (fun (_, set) -> Bitset.union_into ~into:grouped set) groups;
  Bitset.iter grouped ~f:(fun s ->
      direct_below s;
      f s (owner s 0));
  direct_below max_int

let iteri t ~f =
  let delivered s = function [] -> () | msgs -> f s msgs in
  match t with
  | Concrete arr -> Array.iteri delivered arr
  | Counted { n; groups; direct; _ } -> walk ~n groups direct ~f:delivered

(* Votes held as sparse entries only: senders with no accepted value are
   absent. [rev_entries] is descending by sender. *)
let sparse n rev_entries = Vcnt { n; groups = [||]; direct = Array.of_list (List.rev rev_entries) }

let first t ~f =
  match t with
  | Concrete arr -> Varr (Array.map (fun msgs -> List.find_map f msgs) arr)
  | Counted { n; groups; direct; _ } ->
    (* [f] runs once per distinct payload list, not once per sender: it
       must be a pure parser (every protocol step's is). *)
    Vcnt
      {
        n;
        groups = Array.map (fun (msgs, senders) -> (List.find_map f msgs, senders)) groups;
        direct = Array.map (fun (s, msgs) -> (s, List.find_map f msgs)) direct;
      }

let firsti t ~f =
  match t with
  | Concrete arr -> Varr (Array.mapi (fun sender msgs -> List.find_map (f sender) msgs) arr)
  | Counted { n; _ } ->
    let acc = ref [] in
    iteri t ~f:(fun s msgs ->
        match List.find_map (f s) msgs with
        | Some _ as entry -> acc := (s, entry) :: !acc
        | None -> ());
    sparse n !acc

(* -- votes -- *)

let votes arr = Varr arr

let votes_iteri v ~f =
  let accepted s = function Some x -> f s x | None -> () in
  match v with
  | Varr arr -> Array.iteri accepted arr
  | Vcnt { n; groups; direct } -> walk ~n groups direct ~f:accepted

let votes_mapi v ~f =
  match v with
  | Varr arr -> Varr (Array.mapi f arr)
  | Vcnt { n; groups; direct } ->
    let acc = ref [] in
    walk ~n groups direct ~f:(fun s entry ->
        match f s entry with Some _ as entry' -> acc := (s, entry') :: !acc | None -> ());
    sparse n !acc

(* Fold over (value, multiplicity) pairs. The counted representation
   visits each distinct accepted value once with its sender-set
   cardinality, the concrete one visits senders ascending with
   multiplicity 1 - so [f] must be insensitive to grouping and order
   (counting and min/max tallies are). *)
let fold_weighted v ~init ~f =
  match v with
  | Varr arr ->
    Array.fold_left
      (fun acc -> function Some x -> f acc x 1 | None -> acc)
      init arr
  | Vcnt { groups; direct; _ } ->
    let acc = ref init in
    Array.iter
      (fun (entry, senders) ->
        match entry with
        | None -> ()
        | Some x ->
          let c = Bitset.cardinal senders in
          if c > 0 then acc := f !acc x c)
      groups;
    Array.iter
      (fun (_, entry) -> match entry with Some x -> acc := f !acc x 1 | None -> ())
      direct;
    !acc

let count v ~eq x =
  fold_weighted v ~init:0 ~f:(fun acc w mult -> if eq x w then acc + mult else acc)

let plurality v ~compare =
  (* Tally multiplicities with an association list keyed by [compare];
     the distinct-value count is small (one entry per candidate). *)
  let counts =
    fold_weighted v ~init:[] ~f:(fun counts x mult ->
        match List.partition (fun (w, _) -> compare x w = 0) counts with
        | [ (_, c) ], rest -> (x, c + mult) :: rest
        | [], rest -> (x, mult) :: rest
        | _ :: _ :: _, _ -> assert false)
  in
  List.fold_left
    (fun best (x, c) ->
      match best with
      | None -> Some (x, c)
      | Some (bv, bc) -> if c > bc || (c = bc && compare x bv < 0) then Some (x, c) else best)
    None counts

let restrict v ~keep =
  match v with
  | Varr arr -> Varr (Array.mapi (fun s entry -> if Bitset.mem keep s then entry else None) arr)
  | Vcnt { n; groups; direct } ->
    Vcnt
      {
        n;
        groups = Array.map (fun (entry, senders) -> (entry, Bitset.inter senders keep)) groups;
        direct = Array.of_list (List.filter (fun (s, _) -> Bitset.mem keep s) (Array.to_list direct));
      }
