(* Wire format shared by every protocol in one stack instance.

   All sub-protocols of Algorithm 1 run inside a single fiber per
   process, so their messages share one variant type. Instance [tag]s
   disambiguate concurrent or successive sub-protocol instances; honest
   processes run in lock-step so tags are computed identically
   everywhere, and each protocol step only parses messages carrying its
   own tag. *)

module Pki = Bap_crypto.Pki
module Encode = Bap_crypto.Encode
module Advice = Bap_prediction.Advice

module type S = sig
  type value

  type tag = int

  (* -- Authenticated gradecast (building block of the t < n/2 graded
        consensus) -- *)

  type signed_value = { sv_dealer : int; sv_value : value; sv_sig : Pki.signature }
  (** A dealer's signed proposal. *)

  type gcast_echo = { ge_signed : signed_value; ge_sig : Pki.signature }
  (** An echoer's signature over a dealer proposal it received directly. *)

  type echo_cert = { ec_signed : signed_value; ec_echoes : (int * Pki.signature) list }
  (** [n - t] echo signatures on one dealer proposal. *)

  type gcast_report = {
    gr_dealer : int;
    gr_cert : echo_cert option;
    gr_conflict : (signed_value * signed_value) option;
        (** Two dealer signatures on different values: equivocation proof. *)
  }

  (* -- Committee machinery (Algorithms 6 and 7, and Dolev-Strong as
        Algorithm 6 with zero-signature certificates) -- *)

  type committee_cert = { cc_member : int; cc_sigs : (int * Pki.signature) list }

  type chain =
    | Chain_root of { value : value; cert : committee_cert; link_sig : Pki.signature }
    | Chain_link of { prev : chain; signer : int; cert : committee_cert; link_sig : Pki.signature }

  type t =
    | Advice of Advice.t
    | Gc_init of tag * value  (** Graded consensus round 1 / gradecast value. *)
    | Gc_echo of tag * value  (** Graded consensus round 2. *)
    | Conc of tag * value * int list  (** Conciliation: value and the sender's [L] set. *)
    | King of tag * value  (** Early-stopping phase-king broadcast. *)
    | Gcast_init of tag * signed_value
    | Gcast_echo of tag * gcast_echo list
    | Gcast_report of tag * gcast_report list
    | Committee_vote of tag * Pki.signature
    | Bb_chain of tag * int * chain  (** [int] is the broadcast instance's sender. *)
    | Final_value of tag * value * committee_cert

  (* Per-execution validation memo. *)

  type memo
  (** What one execution has already encoded and checked, shared by all
      of its processes: each (tag, dealer, value) triple's gradecast
      payloads, each committee certificate's validity and encoding, and
      each chain node's link check and encoding. Certificates and chain
      nodes are keyed by physical identity, so a structurally equal copy
      is checked afresh. *)

  val memo : Pki.t -> memo
  (** An empty memo for one execution under [pki]. The validators below
      raise [Invalid_argument] when given a memo of another PKI. *)

  (* Signature payloads. Given a memo, each is encoded once per
     execution. Gradecast payloads carry the instance tag. *)

  val committee_payload : int -> string
  val dealer_payload : ?memo:memo -> tag:tag -> dealer:int -> value -> string
  val echo_payload : ?memo:memo -> tag:tag -> dealer:int -> value -> string
  val chain_root_payload : ?memo:memo -> value -> committee_cert -> string
  val chain_link_payload : ?memo:memo -> chain -> committee_cert -> string

  (* Validation. Without a memo, each call runs on a fresh one. *)

  val valid_signed_value : ?memo:memo -> Pki.t -> tag:tag -> signed_value -> bool

  val valid_echo_cert :
    ?memo:memo -> Pki.t -> tag:tag -> threshold:int -> echo_cert -> bool
  (** Valid iff it carries [threshold] echo signatures by distinct
      processes over a valid dealer signature, all under [tag]. *)

  val valid_committee_cert : ?memo:memo -> Pki.t -> quorum:int -> committee_cert -> bool
  (** Valid iff it carries [quorum] signatures by distinct processes on
      [committee_payload cc_member]. *)

  val chain_value : chain -> value
  val chain_sender : chain -> int
  (** The process that started the chain (its root certificate member). *)

  val chain_signers : chain -> int list
  (** Signers from root to tip. *)

  val chain_length : chain -> int

  val valid_chain :
    ?memo:memo -> Pki.t -> quorum:int -> sender:int -> length:int -> chain -> bool
  (** A valid message chain of exactly [length] links started by
      [sender]: every link is correctly signed by a distinct process that
      carries a valid committee certificate ([quorum] = t + 1 in
      Algorithm 7; 0 in Dolev-Strong). *)

  val size_bits : t -> int
  (** Estimated wire size of a message in bits, for communication-
      complexity accounting: values cost their canonical encoding,
      signatures a constant 256 bits, identifiers and tags 32 bits. *)

  (* Byte-level codec for the signature-free messages, used by the chaos
     layer's corruption injector (flip bits in the encoded bytes, then
     decode what survives). Signature-carrying messages have no codec:
     signatures are unforgeable capabilities with deliberately no decoder
     (see {!Pki.encode}), which models the fact that a corrupted signed
     message can never verify and is therefore equivalent to a drop. *)

  val encode_plain : t -> string option
  (** [Some bytes] for [Advice], [Gc_init], [Gc_echo], [Conc] and
      [King]; [None] for the signature-carrying constructors. *)

  val decode_plain : string -> t option
  (** Total inverse: [decode_plain bytes] is [Some m] iff [bytes] is
      exactly [encode_plain m]'s output for some [m] (up to the value
      domain's own [decode] laxity). Never raises, whatever the input —
      corrupted bytes must fail cleanly, not leak exceptions into
      protocol code. *)

  (* Grouping: the counted engine's key for the signature-free messages. *)

  val plain : t -> t option
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : t Fmt.t
end

module Make (V : Value.S) : S with type value = V.t = struct
  type value = V.t
  type tag = int

  type signed_value = { sv_dealer : int; sv_value : value; sv_sig : Pki.signature }
  type gcast_echo = { ge_signed : signed_value; ge_sig : Pki.signature }
  type echo_cert = { ec_signed : signed_value; ec_echoes : (int * Pki.signature) list }

  type gcast_report = {
    gr_dealer : int;
    gr_cert : echo_cert option;
    gr_conflict : (signed_value * signed_value) option;
  }

  type committee_cert = { cc_member : int; cc_sigs : (int * Pki.signature) list }

  type chain =
    | Chain_root of { value : value; cert : committee_cert; link_sig : Pki.signature }
    | Chain_link of { prev : chain; signer : int; cert : committee_cert; link_sig : Pki.signature }

  type t =
    | Advice of Advice.t
    | Gc_init of tag * value
    | Gc_echo of tag * value
    | Conc of tag * value * int list
    | King of tag * value
    | Gcast_init of tag * signed_value
    | Gcast_echo of tag * gcast_echo list
    | Gcast_report of tag * gcast_report list
    | Committee_vote of tag * Pki.signature
    | Bb_chain of tag * int * chain
    | Final_value of tag * value * committee_cert

  let committee_payload member = Encode.tagged "committee" (Encode.int member)

  (* A gradecast payload is its kind and (dealer, value), then the
     instance tag: the tag-free prefix [Encode.tagged kind body] is two
     length-prefixed fields and [Encode.int tag] is one more, so the
     bytes are those of [Encode.triple kind body (string_of_int tag)].
     The memo encodes each prefix once per run, and the running
     instance's tag field once. *)
  let gradecast_prefix kind ~dealer v =
    Encode.tagged kind (Encode.pair (Encode.int dealer) (V.encode v))

  let encode_committee_cert cert =
    Encode.pair
      (Encode.int cert.cc_member)
      (Encode.list
         (List.map
            (fun (signer, s) -> Encode.pair (Encode.int signer) (Encode.str (Pki.encode s)))
            cert.cc_sigs))

  (* One chain node's encoding, given how to encode its prefix and its
     certificate: the plain and the memoised encoder share it. *)
  let encode_node ~chain ~cert = function
    | Chain_root { value; cert = c; link_sig } ->
      Encode.tagged "root"
        (Encode.triple (V.encode value) (cert c) (Encode.str (Pki.encode link_sig)))
    | Chain_link { prev; signer; cert = c; link_sig } ->
      Encode.tagged "link"
        (Encode.list [ chain prev; Encode.int signer; cert c; Encode.str (Pki.encode link_sig) ])

  let rec encode_chain node = encode_node ~chain:encode_chain ~cert:encode_committee_cert node

  let distinct_signers sigs =
    let signers = List.map fst sigs in
    List.length (List.sort_uniq Int.compare signers) = List.length signers

  (* -- The per-execution memo --

     Buckets are indexed by process id (dealer, certificate member, link
     signer); ids outside [0, n) share one overflow bucket. Within a
     bucket, certificates and chain nodes match by physical identity and
     payloads by (dealer, value), then by tag. Entries are never
     evicted: a memo lives exactly as long as its execution. *)

  type tagged_pair = { tp_tag : tag; tp_sign : string; tp_echo : string }

  type payload_entry = {
    pe_dealer : int;
    pe_value : value;
    pe_sign : string;  (* the tag-free prefixes *)
    pe_echo : string;
    mutable pe_tagged : tagged_pair list;  (* newest tag first *)
  }

  type cert_entry = {
    ce_cert : committee_cert;
    ce_sigs_ok : bool;  (* distinct signers, each signature verifies *)
    mutable ce_enc : string option;
  }

  type node_entry = {
    ne_node : chain;
    mutable ne_link_ok : bool option;  (* this node's own link signature *)
    mutable ne_enc : string option;
  }

  type memo = {
    pki : Pki.t;
    mutable field_tag : tag;  (* the tag whose [Encode.int] is [tag_field] *)
    mutable tag_field : string;
    payloads : payload_entry list array;
    certs : cert_entry list array;
    nodes : node_entry list array;
  }

  let memo pki =
    let buckets = Pki.n pki + 1 in
    {
      pki;
      field_tag = min_int;
      tag_field = "";
      payloads = Array.make buckets [];
      certs = Array.make buckets [];
      nodes = Array.make buckets [];
    }

  let bucket m id = if id >= 0 && id < Pki.n m.pki then id else Pki.n m.pki

  let resolve ?memo:m pki =
    match m with
    | None -> memo pki
    | Some m when m.pki == pki -> m
    | Some _ -> invalid_arg "Wire: memo of another PKI"

  let lookup table b ~matches ~create =
    match List.find_opt matches table.(b) with
    | Some e -> e
    | None ->
      let e = create () in
      table.(b) <- e :: table.(b);
      e

  let tag_field m tag =
    if m.field_tag <> tag then begin
      m.field_tag <- tag;
      m.tag_field <- Encode.int tag
    end;
    m.tag_field

  let tagged_payloads m ~tag ~dealer v =
    let e =
      lookup m.payloads (bucket m dealer)
        ~matches:(fun e -> e.pe_dealer = dealer && V.equal e.pe_value v)
        ~create:(fun () ->
          {
            pe_dealer = dealer;
            pe_value = v;
            pe_sign = gradecast_prefix "dealer" ~dealer v;
            pe_echo = gradecast_prefix "echo" ~dealer v;
            pe_tagged = [];
          })
    in
    (* The running instance's tag is the newest, so its lookups stop at
       the head. *)
    match e.pe_tagged with
    | p :: _ when p.tp_tag = tag -> p
    | tagged -> (
      match List.find_opt (fun p -> p.tp_tag = tag) tagged with
      | Some p -> p
      | None ->
        let field = tag_field m tag in
        let p = { tp_tag = tag; tp_sign = e.pe_sign ^ field; tp_echo = e.pe_echo ^ field } in
        e.pe_tagged <- p :: tagged;
        p)

  let cert_entry m cert =
    lookup m.certs (bucket m cert.cc_member)
      ~matches:(fun e -> e.ce_cert == cert)
      ~create:(fun () ->
        let payload = committee_payload cert.cc_member in
        {
          ce_cert = cert;
          ce_sigs_ok =
            distinct_signers cert.cc_sigs
            && List.for_all (fun (signer, s) -> Pki.verify m.pki ~signer ~payload s) cert.cc_sigs;
          ce_enc = None;
        })

  let node_entry m node =
    let id = match node with Chain_root { cert; _ } -> cert.cc_member | Chain_link l -> l.signer in
    lookup m.nodes (bucket m id)
      ~matches:(fun e -> e.ne_node == node)
      ~create:(fun () -> { ne_node = node; ne_link_ok = None; ne_enc = None })

  let cert_encoding m cert =
    let e = cert_entry m cert in
    match e.ce_enc with
    | Some s -> s
    | None ->
      let s = encode_committee_cert cert in
      e.ce_enc <- Some s;
      s

  let rec chain_encoding m node =
    let e = node_entry m node in
    match e.ne_enc with
    | Some s -> s
    | None ->
      let s = encode_node ~chain:(chain_encoding m) ~cert:(cert_encoding m) node in
      e.ne_enc <- Some s;
      s

  (* -- Signature payloads -- *)

  let dealer_payload ?memo ~tag ~dealer v =
    match memo with
    | Some m -> (tagged_payloads m ~tag ~dealer v).tp_sign
    | None -> gradecast_prefix "dealer" ~dealer v ^ Encode.int tag

  let echo_payload ?memo ~tag ~dealer v =
    match memo with
    | Some m -> (tagged_payloads m ~tag ~dealer v).tp_echo
    | None -> gradecast_prefix "echo" ~dealer v ^ Encode.int tag

  let chain_root_payload ?memo v cert =
    let cert_enc =
      match memo with Some m -> cert_encoding m cert | None -> encode_committee_cert cert
    in
    Encode.tagged "chain-root" (Encode.pair (V.encode v) cert_enc)

  let chain_link_payload ?memo prev cert =
    let prev_enc, cert_enc =
      match memo with
      | Some m -> (chain_encoding m prev, cert_encoding m cert)
      | None -> (encode_chain prev, encode_committee_cert cert)
    in
    Encode.tagged "chain-link" (Encode.pair prev_enc cert_enc)

  (* -- Validation -- *)

  let valid_signed_value ?memo pki ~tag sv =
    Pki.verify pki ~signer:sv.sv_dealer
      ~payload:(dealer_payload ?memo ~tag ~dealer:sv.sv_dealer sv.sv_value)
      sv.sv_sig

  let valid_echo_cert ?memo pki ~tag ~threshold cert =
    let sv = cert.ec_signed in
    valid_signed_value ?memo pki ~tag sv
    && List.length cert.ec_echoes >= threshold
    && distinct_signers cert.ec_echoes
    &&
    let payload = echo_payload ?memo ~tag ~dealer:sv.sv_dealer sv.sv_value in
    List.for_all (fun (echoer, s) -> Pki.verify pki ~signer:echoer ~payload s) cert.ec_echoes

  let cert_ok m ~quorum cert = List.length cert.cc_sigs >= quorum && (cert_entry m cert).ce_sigs_ok

  let valid_committee_cert ?memo pki ~quorum cert = cert_ok (resolve ?memo pki) ~quorum cert

  let rec chain_value = function
    | Chain_root { value; _ } -> value
    | Chain_link { prev; _ } -> chain_value prev

  let rec chain_sender = function
    | Chain_root { cert; _ } -> cert.cc_member
    | Chain_link { prev; _ } -> chain_sender prev

  let rec chain_signers = function
    | Chain_root { cert; _ } -> [ cert.cc_member ]
    | Chain_link { prev; signer; _ } -> chain_signers prev @ [ signer ]

  let rec chain_length = function
    | Chain_root _ -> 1
    | Chain_link { prev; _ } -> 1 + chain_length prev

  (* A node's own link: signed by its certificate's member over the
     memoised encoding of its prefix, checked once per memo. *)
  let link_ok m node =
    let e = node_entry m node in
    match e.ne_link_ok with
    | Some ok -> ok
    | None ->
      let ok =
        match node with
        | Chain_root { value; cert; link_sig } ->
          Pki.verify m.pki ~signer:cert.cc_member
            ~payload:(chain_root_payload ~memo:m value cert)
            link_sig
        | Chain_link { prev; signer; cert; link_sig } ->
          cert.cc_member = signer
          && Pki.verify m.pki ~signer ~payload:(chain_link_payload ~memo:m prev cert) link_sig
      in
      e.ne_link_ok <- Some ok;
      ok

  let rec valid_links m ~quorum node =
    match node with
    | Chain_root { cert; _ } -> cert_ok m ~quorum cert && link_ok m node
    | Chain_link { prev; cert; _ } ->
      cert_ok m ~quorum cert && link_ok m node && valid_links m ~quorum prev

  let valid_chain ?memo pki ~quorum ~sender ~length chain =
    chain_length chain = length
    && chain_sender chain = sender
    && (let signers = chain_signers chain in
        List.length (List.sort_uniq Int.compare signers) = List.length signers)
    && valid_links (resolve ?memo pki) ~quorum chain

  let sig_bits = 256
  let id_bits = 32
  let value_bits v = 8 * String.length (V.encode v)
  let sv_bits (sv : signed_value) = id_bits + value_bits sv.sv_value + sig_bits

  let committee_cert_bits cert =
    id_bits + (List.length cert.cc_sigs * (id_bits + sig_bits))

  let echo_cert_bits cert =
    sv_bits cert.ec_signed + (List.length cert.ec_echoes * (id_bits + sig_bits))

  let rec chain_bits = function
    | Chain_root { value; cert; link_sig = _ } ->
      value_bits value + committee_cert_bits cert + sig_bits
    | Chain_link { prev; signer = _; cert; link_sig = _ } ->
      chain_bits prev + id_bits + committee_cert_bits cert + sig_bits

  let size_bits = function
    | Advice a -> id_bits + Advice.length a
    | Gc_init (_, v) | Gc_echo (_, v) | King (_, v) -> id_bits + value_bits v
    | Conc (_, v, l) -> id_bits + value_bits v + (id_bits * List.length l)
    | Gcast_init (_, sv) -> id_bits + sv_bits sv
    | Gcast_echo (_, echoes) ->
      id_bits + List.fold_left (fun acc e -> acc + sv_bits e.ge_signed + sig_bits) 0 echoes
    | Gcast_report (_, reports) ->
      id_bits
      + List.fold_left
          (fun acc r ->
            acc + id_bits
            + (match r.gr_cert with Some c -> echo_cert_bits c | None -> 0)
            + match r.gr_conflict with Some (a, b) -> sv_bits a + sv_bits b | None -> 0)
          0 reports
    | Committee_vote (_, _) -> id_bits + sig_bits
    | Bb_chain (_, _, chain) -> (2 * id_bits) + chain_bits chain
    | Final_value (_, v, cert) -> id_bits + value_bits v + committee_cert_bits cert

  (* -- plain-message codec -- *)

  let encode_plain = function
    | Advice a -> Some (Encode.str "A" ^ Encode.str (Advice.to_bits a))
    | Gc_init (tag, v) ->
      Some (Encode.str "I" ^ Encode.int tag ^ Encode.str (V.encode v))
    | Gc_echo (tag, v) ->
      Some (Encode.str "E" ^ Encode.int tag ^ Encode.str (V.encode v))
    | King (tag, v) ->
      Some (Encode.str "K" ^ Encode.int tag ^ Encode.str (V.encode v))
    | Conc (tag, v, l) ->
      Some
        (Encode.str "C" ^ Encode.int tag ^ Encode.str (V.encode v)
        ^ String.concat "" (List.map Encode.int l))
    | Gcast_init _ | Gcast_echo _ | Gcast_report _ | Committee_vote _ | Bb_chain _
    | Final_value _ ->
      None

  (* Netstring reader matching {!Encode}'s <len>:<bytes> fields. *)
  let read_field s pos =
    let len = String.length s in
    let rec digits i acc count =
      if i >= len || count > 9 then None
      else
        match s.[i] with
        | '0' .. '9' -> digits (i + 1) ((acc * 10) + (Char.code s.[i] - 48)) (count + 1)
        | ':' when count > 0 -> Some (i + 1, acc)
        | _ -> None
    in
    match digits pos 0 0 with
    | None -> None
    | Some (start, flen) ->
      if flen < 0 || start + flen > len then None
      else Some (String.sub s start flen, start + flen)

  let ( let* ) = Option.bind

  let read_int s pos =
    let* raw, pos = read_field s pos in
    let* i = int_of_string_opt raw in
    Some (i, pos)

  let read_value s pos =
    let* raw, pos = read_field s pos in
    let* v = V.decode raw in
    Some (v, pos)

  let rec read_ints s pos acc =
    if pos = String.length s then Some (List.rev acc)
    else
      let* i, pos = read_int s pos in
      read_ints s pos (i :: acc)

  let decode_plain s =
    let finish pos m = if pos = String.length s then Some m else None in
    let* kind, pos = read_field s 0 in
    match kind with
    | "A" ->
      let* raw, pos = read_field s pos in
      let* a = Advice.of_bits raw in
      finish pos (Advice a)
    | "I" ->
      let* tag, pos = read_int s pos in
      let* v, pos = read_value s pos in
      finish pos (Gc_init (tag, v))
    | "E" ->
      let* tag, pos = read_int s pos in
      let* v, pos = read_value s pos in
      finish pos (Gc_echo (tag, v))
    | "K" ->
      let* tag, pos = read_int s pos in
      let* v, pos = read_value s pos in
      finish pos (King (tag, v))
    | "C" ->
      let* tag, pos = read_int s pos in
      let* v, pos = read_value s pos in
      let* l = read_ints s pos [] in
      Some (Conc (tag, v, l))
    | _ -> None

  (* -- grouping -- *)

  let plain m =
    match m with
    | Advice _ | Gc_init _ | Gc_echo _ | Conc _ | King _ -> Some m
    | Gcast_init _ | Gcast_echo _ | Gcast_report _ | Committee_vote _ | Bb_chain _
    | Final_value _ ->
      None

  let equal a b =
    match (a, b) with
    | Advice x, Advice y -> Advice.equal x y
    | Gc_init (t1, v1), Gc_init (t2, v2)
    | Gc_echo (t1, v1), Gc_echo (t2, v2)
    | King (t1, v1), King (t2, v2) ->
      Int.equal t1 t2 && V.equal v1 v2
    | Conc (t1, v1, l1), Conc (t2, v2, l2) ->
      Int.equal t1 t2 && V.equal v1 v2 && (l1 == l2 || List.equal Int.equal l1 l2)
    | _ -> false

  let hash m =
    let h =
      match m with
      | Advice a -> Advice.hash a
      | Gc_init (tag, _) -> (31 * tag) + 1
      | Gc_echo (tag, _) -> (31 * tag) + 2
      | King (tag, _) -> (31 * tag) + 3
      | Conc (tag, _, l) -> List.fold_left (fun h id -> (31 * h) + id) ((31 * tag) + 4) l
      | Gcast_init (tag, _) | Gcast_echo (tag, _) | Gcast_report (tag, _)
      | Committee_vote (tag, _) | Bb_chain (tag, _, _) | Final_value (tag, _, _) ->
        (31 * tag) + 5
    in
    h land max_int

  let pp ppf = function
    | Advice a -> Fmt.pf ppf "Advice(%a)" Advice.pp a
    | Gc_init (tag, v) -> Fmt.pf ppf "Gc_init(#%d, %a)" tag V.pp v
    | Gc_echo (tag, v) -> Fmt.pf ppf "Gc_echo(#%d, %a)" tag V.pp v
    | Conc (tag, v, l) ->
      Fmt.pf ppf "Conc(#%d, %a, {%a})" tag V.pp v Fmt.(list ~sep:comma int) l
    | King (tag, v) -> Fmt.pf ppf "King(#%d, %a)" tag V.pp v
    | Gcast_init (tag, sv) -> Fmt.pf ppf "Gcast_init(#%d, %d:%a)" tag sv.sv_dealer V.pp sv.sv_value
    | Gcast_echo (tag, svs) -> Fmt.pf ppf "Gcast_echo(#%d, %d dealers)" tag (List.length svs)
    | Gcast_report (tag, rs) -> Fmt.pf ppf "Gcast_report(#%d, %d reports)" tag (List.length rs)
    | Committee_vote (tag, _) -> Fmt.pf ppf "Committee_vote(#%d)" tag
    | Bb_chain (tag, s, c) ->
      Fmt.pf ppf "Bb_chain(#%d, sender %d, len %d, %a)" tag s (chain_length c) V.pp (chain_value c)
    | Final_value (tag, v, _) -> Fmt.pf ppf "Final_value(#%d, %a)" tag V.pp v
end
