(* Flat bitset over the process identifier space [0, n). One int array
   word per 63 ids keeps membership, popcount and intersection O(n/63)
   instead of O(n) - the representation behind counted sender sets and
   the prediction layer's advice vectors. *)

type t = { length : int; words : int array }

let bits_per_word = Sys.int_size (* 63 on 64-bit *)

let words_for length = (length + bits_per_word - 1) / bits_per_word

let create length =
  if length < 0 then invalid_arg "Bitset.create: negative length";
  { length; words = Array.make (max 1 (words_for length)) 0 }

let length t = t.length

let check t i op =
  if i < 0 || i >= t.length then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of [0, %d)" op i t.length)

let set t i =
  check t i "set";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check t i "clear";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let assign t i bit = if bit then set t i else clear t i

let get t i =
  check t i "get";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let mem t i = i >= 0 && i < t.length && get t i

let copy t = { length = t.length; words = Array.copy t.words }

let init length f =
  let t = create length in
  for i = 0 to length - 1 do
    if f i then set t i
  done;
  t

let of_list length ids =
  let t = create length in
  List.iter (fun i -> set t i) ids;
  t

(* SWAR popcount, constant cost per word: bit pairs, nibbles, bytes,
   then one multiply sums the bytes into the top byte (at most 63 fits
   its 7 bits). Shifts are [lsr] because bit 62 is the sign bit. *)
let popcount_word w =
  let w = w - ((w lsr 1) land 0x5555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let iter t ~f =
  (* Ascending id order: word-major, bit-minor. *)
  Array.iteri
    (fun wi word ->
      if word <> 0 then begin
        let base = wi * bits_per_word in
        let w = ref word in
        while !w <> 0 do
          let b = !w land - !w in
          (* index of the lowest set bit *)
          let rec log2 acc m = if m = 1 then acc else log2 (acc + 1) (m lsr 1) in
          f (base + log2 0 b);
          w := !w land lnot b
        done
      end)
    t.words

let to_list t =
  let acc = ref [] in
  iter t ~f:(fun i -> acc := i :: !acc);
  List.rev !acc

let equal a b =
  a.length = b.length
  &&
  let rec same i = i < 0 || (Int.equal a.words.(i) b.words.(i) && same (i - 1)) in
  same (Array.length a.words - 1)

(* Multiply-xorshift over the length and every word: bits past the
   length are always clear, so equal sets hash equally, and the shift
   folds high bits into the low ones a bucket index reads. *)
let hash t =
  let mix h w =
    let h = (h lxor w) * 0x100_0000_01b3 in
    h lxor (h lsr 29)
  in
  Array.fold_left mix (mix 0 t.length) t.words land max_int

let inter a b =
  if a.length <> b.length then invalid_arg "Bitset.inter: length mismatch";
  let t = create a.length in
  Array.iteri (fun i w -> t.words.(i) <- w land b.words.(i)) a.words;
  t

let union_into ~into b =
  if into.length <> b.length then invalid_arg "Bitset.union_into: length mismatch";
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) lor w) b.words

(* Word-parallel weighted count. Within one word, the weight of every id
   is held in binary across bit-planes (plane p holds bit p of each id's
   weight); adding a set with multiplicity m is one ripple-carry addition
   of the constant m to the ids the set's word contains, and the
   comparison with the threshold runs plane by plane from the top. The
   planes cover the bits of the total weight, so nothing overflows. *)
let at_least ~length ~threshold weighted =
  let total =
    List.fold_left
      (fun acc (s, m) ->
        if s.length <> length then invalid_arg "Bitset.at_least: length mismatch";
        if m < 0 then invalid_arg "Bitset.at_least: negative multiplicity";
        acc + m)
      0 weighted
  in
  if threshold <= 0 then init length (fun _ -> true)
  else if threshold > total then create length
  else begin
    let result = create length in
    let rec width acc x = if x = 0 then acc else width (acc + 1) (x lsr 1) in
    let planes = Array.make (width 0 total) 0 in
    let top = Array.length planes - 1 in
    for w = 0 to Array.length result.words - 1 do
      Array.fill planes 0 (top + 1) 0;
      List.iter
        (fun (s, m) ->
          let word = s.words.(w) in
          if word <> 0 then begin
            let carry = ref 0 in
            for p = 0 to top do
              let a = planes.(p) and b = if (m lsr p) land 1 = 1 then word else 0 in
              planes.(p) <- a lxor b lxor !carry;
              carry := (a land b) lor (!carry land (a lxor b))
            done
          end)
        weighted;
      (* [gt]: ids whose weight is above the threshold on the planes
         read so far; [eq]: ids equal to it so far. *)
      let gt = ref 0 and eq = ref (-1) in
      for p = top downto 0 do
        let plane = planes.(p) in
        if (threshold lsr p) land 1 = 1 then eq := !eq land plane
        else begin
          gt := !gt lor (!eq land plane);
          eq := !eq land lnot plane
        end
      done;
      result.words.(w) <- !gt lor !eq
    done;
    result
  end
