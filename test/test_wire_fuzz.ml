(* Fuzzing the wire validators: random structural mutations of valid
   certificates and chains must always be rejected (no mutation may
   slip through), and the unmutated originals must always verify. *)

open Helpers
module W = S.W

let make_cert pki ~quorum ~member =
  {
    W.cc_member = member;
    cc_sigs =
      List.init quorum (fun j -> (j, Pki.sign (Pki.key pki j) (W.committee_payload member)));
  }

let make_chain pki ~quorum ~sender ~signers v =
  let cert = make_cert pki ~quorum ~member:sender in
  let root =
    let link_sig = Pki.sign (Pki.key pki sender) (W.chain_root_payload v cert) in
    W.Chain_root { value = v; cert; link_sig }
  in
  List.fold_left
    (fun chain signer ->
      let cert = make_cert pki ~quorum ~member:signer in
      let link_sig = Pki.sign (Pki.key pki signer) (W.chain_link_payload chain cert) in
      W.Chain_link { prev = chain; signer; cert; link_sig })
    root signers

(* Structural mutations of a chain; each must invalidate it. *)
let rec flip_root_value = function
  | W.Chain_root r -> W.Chain_root { r with value = r.value + 1 }
  | W.Chain_link l -> W.Chain_link { l with prev = flip_root_value l.prev }

let rec swap_root_cert pki ~quorum = function
  | W.Chain_root r ->
    W.Chain_root { r with cert = make_cert pki ~quorum ~member:(r.cert.W.cc_member + 1) }
  | W.Chain_link l -> W.Chain_link { l with prev = swap_root_cert pki ~quorum l.prev }

let mutate rng pki ~quorum chain =
  match Rng.int rng 7 with
  | 0 -> ("value flip", flip_root_value chain)
  | 1 -> ("foreign root cert", swap_root_cert pki ~quorum chain)
  | 2 -> (
    (* Re-sign the tip with the wrong key. *)
    match chain with
    | W.Chain_link l ->
      ( "wrong tip signer key",
        W.Chain_link
          {
            l with
            link_sig =
              Pki.sign (Pki.key pki ((l.signer + 1) mod Pki.n pki))
                (W.chain_link_payload l.prev l.cert);
          } )
    | W.Chain_root r ->
      ( "wrong root signer key",
        W.Chain_root
          {
            r with
            link_sig =
              Pki.sign
                (Pki.key pki ((r.cert.W.cc_member + 1) mod Pki.n pki))
                (W.chain_root_payload r.value r.cert);
          } ))
  | 3 -> (
    (* Truncate a certificate below quorum. *)
    match chain with
    | W.Chain_link l ->
      ( "underfull tip cert",
        W.Chain_link { l with cert = { l.cert with W.cc_sigs = List.tl l.cert.W.cc_sigs } } )
    | W.Chain_root r ->
      ( "underfull root cert",
        W.Chain_root { r with cert = { r.cert with W.cc_sigs = List.tl r.cert.W.cc_sigs } } ))
  | 4 -> (
    (* Keep the tip's certificate object and signer, but swap in the
       signer's signature on another payload. *)
    match chain with
    | W.Chain_link l ->
      ( "swapped tip signature, same cert",
        W.Chain_link
          {
            l with
            link_sig = Pki.sign (Pki.key pki l.signer) (W.chain_root_payload 43 l.cert);
          } )
    | W.Chain_root r ->
      ( "swapped root signature, same cert",
        W.Chain_root
          {
            r with
            link_sig =
              Pki.sign (Pki.key pki r.cert.W.cc_member) (W.chain_root_payload 43 r.cert);
          } ))
  | 5 -> (
    (* A full certificate for the same member whose first signature is
       on another member's payload. *)
    let forge (cert : W.committee_cert) =
      match cert.W.cc_sigs with
      | (j, _) :: rest ->
        let s = Pki.sign (Pki.key pki j) (W.committee_payload (cert.W.cc_member + 1)) in
        { cert with W.cc_sigs = (j, s) :: rest }
      | [] -> cert
    in
    match chain with
    | W.Chain_link l -> ("forged tip cert signature", W.Chain_link { l with cert = forge l.cert })
    | W.Chain_root r -> ("forged root cert signature", W.Chain_root { r with cert = forge r.cert }))
  | _ ->
    (* Extend with a duplicate signer (the chain's own starter): breaks
       the distinct-signers requirement whatever the chain shape. *)
    let sender = W.chain_sender chain in
    let cert = make_cert pki ~quorum ~member:sender in
    ( "duplicate signer",
      W.Chain_link
        {
          prev = chain;
          signer = sender;
          cert;
          link_sig = Pki.sign (Pki.key pki sender) (W.chain_link_payload chain cert);
        } )

(* Each mutant is checked twice: on a fresh memo, and on the memo that
   just validated the original, where it meets cached prefix nodes and
   certificates. Both must reject it. *)
let prop_mutations_rejected =
  qcheck ~count:100 ~name:"all chain mutations rejected"
    QCheck2.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* len = int_range 1 4 in
      return (seed, len))
    (fun (seed, len) ->
      let rng = Rng.create seed in
      let n = 10 and quorum = 3 in
      let pki = Pki.create ~n in
      let sender = 0 in
      let signers = List.init (len - 1) (fun i -> i + 1) in
      let chain = make_chain pki ~quorum ~sender ~signers 42 in
      let memo = W.memo pki in
      let valid ?memo c =
        W.valid_chain ?memo pki ~quorum ~sender ~length:(W.chain_length c) c
      in
      (* Sanity: the original is valid. *)
      if not (valid ~memo chain) then false
      else begin
        let name, mutated = mutate rng pki ~quorum chain in
        let fresh = valid mutated and shared = valid ~memo mutated in
        if shared <> fresh then
          QCheck2.Test.fail_reportf "mutation %S: shared memo says %b, fresh memo %b" name
            shared fresh
        else if fresh then QCheck2.Test.fail_reportf "mutation %S accepted" name
        else true
      end)

let prop_ds_tamper_rejected =
  qcheck ~count:100 ~name:"DS chain value tampering rejected"
    QCheck2.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* len = int_range 1 5 in
      let* v = int_range 0 100 in
      return (seed, len, v))
    (fun (_seed, len, v) ->
      let n = 8 in
      let pki = Pki.create ~n in
      (* Zero-signature certificates: the Dolev-Strong chains. *)
      let chain = make_chain pki ~quorum:0 ~sender:0 ~signers:(List.init (len - 1) succ) v in
      W.valid_chain pki ~quorum:0 ~sender:0 ~length:len chain
      && not (W.valid_chain pki ~quorum:0 ~sender:0 ~length:len (flip_root_value chain)))

(* -- plain-message codec under corruption -- *)

module Injector = Bap_chaos.Injector.Make (V) (W)

(* Random signature-free messages (the domain of [encode_plain]). *)
let gen_plain rng =
  let value () = Rng.int rng 100 in
  let tag () = Rng.int rng 1000 in
  match Rng.int rng 5 with
  | 0 ->
    let bits = String.init (1 + Rng.int rng 12) (fun _ -> if Rng.bool rng then '1' else '0') in
    W.Advice (Option.get (Advice.of_bits bits))
  | 1 -> W.Gc_init (tag (), value ())
  | 2 -> W.Gc_echo (tag (), value ())
  | 3 -> W.King (tag (), value ())
  | _ -> W.Conc (tag (), value (), List.init (Rng.int rng 6) (fun _ -> Rng.int rng 50))

let prop_plain_roundtrip =
  qcheck ~count:200 ~name:"plain codec round-trips uncorrupted messages"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = gen_plain rng in
      match W.encode_plain m with
      | None -> false
      | Some bytes -> W.decode_plain bytes = Some m)

let prop_corruption_total =
  qcheck ~count:300 ~name:"corrupted payloads decode cleanly or drop, never raise"
    QCheck2.Gen.(
      let* seed = int_range 0 1_000_000 in
      let* bit = int_range 0 8192 in
      return (seed, bit))
    (fun (seed, bit) ->
      let rng = Rng.create seed in
      let m = gen_plain rng in
      match Injector.corrupt_msg ~bit m with
      | None -> true (* garbled beyond parsing: clean drop *)
      | Some m' ->
        (* Whatever survives the bit-flip must itself be a well-formed
           plain message: re-encoding and re-decoding is the identity. *)
        (match W.encode_plain m' with
        | None -> false
        | Some bytes -> W.decode_plain bytes = Some m'))

(* -- grouping: the counted engine's equality is the wire's -- *)

(* A random signature-free message and a second one built to be close
   to it: a structurally equal copy, an advice vector at n >= 127 that
   differs only past bit 63, a [Conc] set reordered or with a duplicate,
   another tag or value, or an unrelated message. *)
let gen_plain_pair rng =
  let advice_of_length len = Advice.init len (fun _ -> Rng.bool rng) in
  let a =
    match Rng.int rng 3 with
    | 0 -> W.Advice (advice_of_length (127 + Rng.int rng 100))
    | 1 -> W.Conc (Rng.int rng 5, Rng.int rng 3, List.init (2 + Rng.int rng 5) (fun _ -> Rng.int rng 50))
    | _ -> gen_plain rng
  in
  let b =
    match (Rng.int rng 5, a) with
    | 0, W.Advice x -> W.Advice (Option.get (Advice.of_bits (Advice.to_bits x)))
    | 0, W.Conc (tag, v, l) -> W.Conc (tag, v, List.map Fun.id l)
    | 1, W.Advice x when Advice.length x > 63 ->
      W.Advice (Advice.flip x (63 + Rng.int rng (Advice.length x - 63)))
    | 1, W.Conc (tag, v, (y :: z :: rest as l)) ->
      if Rng.bool rng then W.Conc (tag, v, z :: y :: rest) else W.Conc (tag, v, l @ [ y ])
    | 2, W.Conc (tag, v, l) -> W.Conc (tag + Rng.int rng 2, v + Rng.int rng 2, l)
    | 2, (W.Gc_init (tag, v) | W.Gc_echo (tag, v) | W.King (tag, v)) ->
      W.Gc_init (tag + Rng.int rng 2, v + Rng.int rng 2)
    | 3, _ -> a
    | _ -> gen_plain rng
  in
  (a, b)

let prop_grouping_is_wire_equality =
  qcheck ~count:500 ~name:"equal iff same plain bytes; equal implies same hash"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let a, b = gen_plain_pair rng in
      let same_bytes = W.encode_plain a = W.encode_plain b in
      if W.equal a b <> same_bytes then
        QCheck2.Test.fail_reportf "equal %b but same bytes %b: %a / %a" (W.equal a b) same_bytes
          W.pp a W.pp b
      else if W.equal a b && W.hash a <> W.hash b then
        QCheck2.Test.fail_reportf "equal but hashes differ: %a" W.pp a
      else true)

let prop_signed_always_drop =
  qcheck ~count:50 ~name:"corrupting signature-carrying messages always drops"
    QCheck2.Gen.(int_range 0 8192)
    (fun bit ->
      let pki = Pki.create ~n:4 in
      let m = W.Committee_vote (7, Pki.sign (Pki.key pki 0) "payload") in
      Injector.corrupt_msg ~bit m = None)

let suite =
  [
    prop_mutations_rejected;
    prop_ds_tamper_rejected;
    prop_plain_roundtrip;
    prop_corruption_total;
    prop_signed_always_drop;
    prop_grouping_is_wire_equality;
  ]
