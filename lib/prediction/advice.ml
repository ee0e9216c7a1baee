(* Immutable bit vector backed by the simulator's flat bitset: 1 bit per
   process instead of a boxed bool array, so an n = 10^4 advice vector is
   ~1.25 KB and equality/Hamming distance run word-at-a-time. The
   functional interface (set/flip copy) keeps aliasing bugs out; advice
   strings are copied rarely. *)
module Bitset = Bap_sim.Bitset

type t = Bitset.t

let length = Bitset.length
let make n bit = Bitset.init n (fun _ -> bit)
let init = Bitset.init
let get = Bitset.get

let set a j bit =
  let a' = Bitset.copy a in
  Bitset.assign a' j bit;
  a'

let flip a j = set a j (not (Bitset.get a j))

let ground_truth ~n ~faulty =
  let a = Bitset.init n (fun _ -> true) in
  Array.iter (fun j -> Bitset.clear a j) faulty;
  a

let errors_against ~truth a =
  if Bitset.length truth <> Bitset.length a then invalid_arg "Advice.errors_against";
  let c = ref 0 in
  for j = 0 to Bitset.length a - 1 do
    if Bitset.get a j <> Bitset.get truth j then incr c
  done;
  !c

let error_positions ~truth a =
  if Bitset.length truth <> Bitset.length a then invalid_arg "Advice.error_positions";
  let acc = ref [] in
  for j = Bitset.length a - 1 downto 0 do
    if Bitset.get a j <> Bitset.get truth j then acc := j :: !acc
  done;
  !acc

let to_bits a = String.init (Bitset.length a) (fun j -> if Bitset.get a j then '1' else '0')

let of_bits s =
  let ok = ref true in
  let a =
    Bitset.init (String.length s) (fun j ->
        match s.[j] with
        | '1' -> true
        | '0' -> false
        | _ ->
          ok := false;
          false)
  in
  if !ok then Some a else None

let of_bool_array a = Bitset.init (Array.length a) (fun j -> a.(j))
let to_bool_array a = Array.init (Bitset.length a) (fun j -> Bitset.get a j)
let equal = Bitset.equal
let hash = Bitset.hash
let at_least ~n ~threshold votes = Bitset.at_least ~length:n ~threshold votes
let pp ppf a = Fmt.pf ppf "%s" (to_bits a)
