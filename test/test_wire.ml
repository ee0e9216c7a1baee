(* Wire-format validation: committee certificates, message chains and
   Dolev-Strong (quorum-0) chains must reject every tampering we can
   produce. *)

open Helpers
module W = S.W

let make_pki n = Pki.create ~n

let make_cert pki ~quorum ~member =
  {
    W.cc_member = member;
    cc_sigs =
      List.init quorum (fun j -> (j, Pki.sign (Pki.key pki j) (W.committee_payload member)));
  }

let test_committee_cert_valid () =
  let pki = make_pki 8 in
  let cert = make_cert pki ~quorum:3 ~member:5 in
  Alcotest.(check bool) "valid" true (W.valid_committee_cert pki ~quorum:3 cert)

let test_committee_cert_underfull () =
  let pki = make_pki 8 in
  let cert = make_cert pki ~quorum:2 ~member:5 in
  Alcotest.(check bool) "too few sigs" false (W.valid_committee_cert pki ~quorum:3 cert)

let test_committee_cert_duplicate_signers () =
  let pki = make_pki 8 in
  let s = Pki.sign (Pki.key pki 1) (W.committee_payload 5) in
  let cert = { W.cc_member = 5; cc_sigs = [ (1, s); (1, s); (1, s) ] } in
  Alcotest.(check bool) "duplicates rejected" false
    (W.valid_committee_cert pki ~quorum:3 cert)

let test_committee_cert_wrong_member () =
  let pki = make_pki 8 in
  let cert = make_cert pki ~quorum:3 ~member:5 in
  let stolen = { cert with W.cc_member = 6 } in
  Alcotest.(check bool) "sigs bound to member" false
    (W.valid_committee_cert pki ~quorum:3 stolen)

let make_root pki ~quorum ~sender v =
  let cert = make_cert pki ~quorum ~member:sender in
  let link_sig = Pki.sign (Pki.key pki sender) (W.chain_root_payload v cert) in
  W.Chain_root { value = v; cert; link_sig }

let extend pki ~quorum ~signer chain =
  let cert = make_cert pki ~quorum ~member:signer in
  let link_sig = Pki.sign (Pki.key pki signer) (W.chain_link_payload chain cert) in
  W.Chain_link { prev = chain; signer; cert; link_sig }

let test_chain_valid () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  let c2 = extend pki ~quorum:3 ~signer:5 c in
  Alcotest.(check bool) "root valid" true (W.valid_chain pki ~quorum:3 ~sender:4 ~length:1 c);
  Alcotest.(check bool) "link valid" true (W.valid_chain pki ~quorum:3 ~sender:4 ~length:2 c2);
  Alcotest.(check int) "value" 77 (W.chain_value c2);
  Alcotest.(check (list int)) "signers" [ 4; 5 ] (W.chain_signers c2)

let test_chain_wrong_length () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  Alcotest.(check bool) "length mismatch" false
    (W.valid_chain pki ~quorum:3 ~sender:4 ~length:2 c)

let test_chain_wrong_sender () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  Alcotest.(check bool) "sender mismatch" false
    (W.valid_chain pki ~quorum:3 ~sender:5 ~length:1 c)

let test_chain_value_tamper () =
  let pki = make_pki 8 in
  match make_root pki ~quorum:3 ~sender:4 77 with
  | W.Chain_root r ->
    let tampered = W.Chain_root { r with value = 78 } in
    Alcotest.(check bool) "tampered value rejected" false
      (W.valid_chain pki ~quorum:3 ~sender:4 ~length:1 tampered)
  | W.Chain_link _ -> Alcotest.fail "unexpected"

let test_chain_duplicate_signer () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  let c2 = extend pki ~quorum:3 ~signer:4 c in
  Alcotest.(check bool) "duplicate signer rejected" false
    (W.valid_chain pki ~quorum:3 ~sender:4 ~length:2 c2)

let test_chain_foreign_cert () =
  let pki = make_pki 8 in
  let c = make_root pki ~quorum:3 ~sender:4 77 in
  (* Signer 5 extends but presents 6's certificate. *)
  let cert6 = make_cert pki ~quorum:3 ~member:6 in
  let link_sig = Pki.sign (Pki.key pki 5) (W.chain_link_payload c cert6) in
  let c2 = W.Chain_link { prev = c; signer = 5; cert = cert6; link_sig } in
  Alcotest.(check bool) "cert must match signer" false
    (W.valid_chain pki ~quorum:3 ~sender:4 ~length:2 c2)

(* Dolev-Strong chains are quorum-0 committee chains: every process
   certifies itself with zero signatures. *)
let test_ds_chain_valid () =
  let pki = make_pki 6 in
  let c = make_root pki ~quorum:0 ~sender:0 9 in
  let c2 = extend pki ~quorum:0 ~signer:1 c in
  let c3 = extend pki ~quorum:0 ~signer:2 c2 in
  Alcotest.(check bool) "length 3 valid" true
    (W.valid_chain pki ~quorum:0 ~sender:0 ~length:3 c3);
  Alcotest.(check int) "value" 9 (W.chain_value c3);
  Alcotest.(check (list int)) "signers in order" [ 0; 1; 2 ] (W.chain_signers c3)

let test_ds_chain_duplicate () =
  let pki = make_pki 6 in
  let c = make_root pki ~quorum:0 ~sender:0 9 in
  let c2 = extend pki ~quorum:0 ~signer:0 c in
  Alcotest.(check bool) "duplicate signer rejected" false
    (W.valid_chain pki ~quorum:0 ~sender:0 ~length:2 c2)

let test_ds_chain_tamper () =
  let pki = make_pki 6 in
  match make_root pki ~quorum:0 ~sender:0 9 with
  | W.Chain_root r ->
    let tampered = W.Chain_root { r with value = 10 } in
    Alcotest.(check bool) "tamper rejected" false
      (W.valid_chain pki ~quorum:0 ~sender:0 ~length:1 tampered)
  | W.Chain_link _ -> Alcotest.fail "unexpected"

let test_echo_cert () =
  let pki = make_pki 6 in
  let sv =
    {
      W.sv_dealer = 2;
      sv_value = 5;
      sv_sig = Pki.sign (Pki.key pki 2) (W.dealer_payload ~tag:1 ~dealer:2 5);
    }
  in
  Alcotest.(check bool) "signed value valid" true (W.valid_signed_value pki ~tag:1 sv);
  Alcotest.(check bool) "another instance's tag" false (W.valid_signed_value pki ~tag:2 sv);
  let cert =
    {
      W.ec_signed = sv;
      ec_echoes =
        List.init 4 (fun j -> (j, Pki.sign (Pki.key pki j) (W.echo_payload ~tag:1 ~dealer:2 5)));
    }
  in
  Alcotest.(check bool) "echo cert valid" true (W.valid_echo_cert pki ~tag:1 ~threshold:4 cert);
  Alcotest.(check bool) "higher threshold fails" false
    (W.valid_echo_cert pki ~tag:1 ~threshold:5 cert);
  Alcotest.(check bool) "echo cert replayed under another tag" false
    (W.valid_echo_cert pki ~tag:2 ~threshold:4 cert);
  (* Tampered inner value invalidates the dealer signature. *)
  let bad = { cert with W.ec_signed = { sv with W.sv_value = 6 } } in
  Alcotest.(check bool) "tampered dealer value" false
    (W.valid_echo_cert pki ~tag:1 ~threshold:4 bad)

let suite =
  [
    Alcotest.test_case "committee cert valid" `Quick test_committee_cert_valid;
    Alcotest.test_case "committee cert underfull" `Quick test_committee_cert_underfull;
    Alcotest.test_case "committee cert duplicate signers" `Quick
      test_committee_cert_duplicate_signers;
    Alcotest.test_case "committee cert wrong member" `Quick test_committee_cert_wrong_member;
    Alcotest.test_case "chain valid" `Quick test_chain_valid;
    Alcotest.test_case "chain wrong length" `Quick test_chain_wrong_length;
    Alcotest.test_case "chain wrong sender" `Quick test_chain_wrong_sender;
    Alcotest.test_case "chain value tamper" `Quick test_chain_value_tamper;
    Alcotest.test_case "chain duplicate signer" `Quick test_chain_duplicate_signer;
    Alcotest.test_case "chain foreign certificate" `Quick test_chain_foreign_cert;
    Alcotest.test_case "ds chain valid" `Quick test_ds_chain_valid;
    Alcotest.test_case "ds chain duplicate signer" `Quick test_ds_chain_duplicate;
    Alcotest.test_case "ds chain tamper" `Quick test_ds_chain_tamper;
    Alcotest.test_case "echo certificates" `Quick test_echo_cert;
  ]
