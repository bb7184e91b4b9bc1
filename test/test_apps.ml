(* Application tests: the four SEA-enhanced applications of §4.1, each
   exercised through full sessions on the simulated HP dc5750, plus codec
   roundtrips and cross-PAL isolation checks. *)

open Sea_hw
open Sea_apps

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let ok = function Ok x -> x | Error e -> Alcotest.fail e
let expect_error = function Error _ -> () | Ok _ -> Alcotest.fail "expected error"

let machine () = Machine.create (Machine.low_fidelity Machine.hp_dc5750)

(* --- Codec --- *)

let test_codec_command_roundtrip () =
  let framed = Codec.command "verb" [ "a"; ""; "binary\x00\xff" ] in
  (match Codec.parse_command framed with
  | Some ("verb", [ "a"; ""; "binary\x00\xff" ]) -> ()
  | _ -> Alcotest.fail "roundtrip failed");
  checkb "junk rejected" true (Codec.parse_command "junk" = None)

let test_codec_rsa_roundtrip () =
  let key = Sea_crypto.Rsa.generate ~bits:256 (Sea_crypto.Drbg.create ~seed:"codec") in
  (match Codec.rsa_private_of_string (Codec.rsa_private_to_string key) with
  | Some k ->
      checkb "private roundtrip" true (Sea_crypto.Bignum.equal k.Sea_crypto.Rsa.d key.Sea_crypto.Rsa.d)
  | None -> Alcotest.fail "private roundtrip failed");
  (match Codec.rsa_public_of_string (Codec.rsa_public_to_string key.Sea_crypto.Rsa.pub) with
  | Some p ->
      checkb "public roundtrip" true
        (Sea_crypto.Bignum.equal p.Sea_crypto.Rsa.n key.Sea_crypto.Rsa.pub.Sea_crypto.Rsa.n)
  | None -> Alcotest.fail "public roundtrip failed");
  checkb "garbage public rejected" true (Codec.rsa_public_of_string "xx" = None)

let test_codec_rejects_inconsistent_key () =
  let open Sea_crypto in
  let key = Rsa.generate ~bits:256 (Drbg.create ~seed:"codec") in
  let other = Rsa.generate ~bits:256 (Drbg.create ~seed:"codec-other") in
  let encode values =
    let enc = Wire.encoder () in
    List.iter (fun v -> Wire.add_string enc (Bignum.to_bytes_be v)) values;
    Wire.contents enc
  in
  let decodes values = Option.is_some (Codec.rsa_private_of_string (encode values)) in
  let { Rsa.n; e; _ } = key.Rsa.pub and d = key.Rsa.d and p = key.Rsa.p and q = key.Rsa.q in
  checkb "consistent key accepted" true (decodes [ n; e; d; p; q ]);
  checkb "n other than p*q rejected" false (decodes [ other.Rsa.pub.Rsa.n; e; d; p; q ]);
  checkb "d other than e^-1 rejected" false (decodes [ n; e; other.Rsa.d; p; q ]);
  checkb "e other than the one d inverts rejected" false (decodes [ n; Bignum.of_int 3; d; p; q ])

(* --- Certificate authority --- *)

let test_ca_issue_and_verify () =
  let m = machine () in
  let ca = ok (Cert_authority.init m ~cpu:0 ()) in
  let cert = ok (Cert_authority.sign_csr m ~cpu:0 ca ~csr:"CN=alice,O=example") in
  checkb "certificate verifies" true
    (Cert_authority.verify_certificate ca ~csr:"CN=alice,O=example" ~signature:cert);
  checkb "different CSR rejected" false
    (Cert_authority.verify_certificate ca ~csr:"CN=mallory" ~signature:cert)

let test_ca_key_never_leaves_sealed () =
  let m = machine () in
  let ca = ok (Cert_authority.init m ~cpu:0 ()) in
  (* The OS-visible state is the sealed blob; unsealing from the OS after
     the session must fail (exit marker). *)
  let tpm = Machine.tpm_exn m in
  (match Sea_tpm.Tpm.unseal tpm ~caller:Sea_tpm.Tpm.Software ca.Cert_authority.sealed_key with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "CA key leaked to the OS")

let test_ca_distinct_instances () =
  let m = machine () in
  let ca1 = ok (Cert_authority.init m ~cpu:0 ()) in
  let ca2 = ok (Cert_authority.init m ~cpu:0 ()) in
  (* Two inits draw different TPM randomness: different keys. *)
  checkb "independent CAs" false
    (Sea_crypto.Bignum.equal ca1.Cert_authority.public.Sea_crypto.Rsa.n
       ca2.Cert_authority.public.Sea_crypto.Rsa.n);
  (* A cert from ca1 does not verify under ca2. *)
  let cert = ok (Cert_authority.sign_csr m ~cpu:0 ca1 ~csr:"CN=x") in
  checkb "cross-CA verification fails" false
    (Cert_authority.verify_certificate ca2 ~csr:"CN=x" ~signature:cert)

(* --- SSH password handling --- *)

let test_ssh_auth_flow () =
  let m = machine () in
  let acct = ok (Ssh_password.setup m ~cpu:0 ~user:"admin" ~password:"correct horse") in
  checkb "right password" true (ok (Ssh_password.authenticate m ~cpu:0 acct ~password:"correct horse"));
  checkb "wrong password" false (ok (Ssh_password.authenticate m ~cpu:0 acct ~password:"battery staple"));
  checkb "empty password" false (ok (Ssh_password.authenticate m ~cpu:0 acct ~password:""))

let test_ssh_record_opaque_to_os () =
  let m = machine () in
  let acct = ok (Ssh_password.setup m ~cpu:0 ~user:"admin" ~password:"s3cret") in
  (* The sealed record does not contain the password or its hash in
     cleartext. *)
  let record = acct.Ssh_password.sealed_record in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n > 0 && go 0
  in
  checkb "password not in blob" false (contains ~needle:"s3cret" record);
  checkb "username not in blob" false (contains ~needle:"admin" record)

let test_ssh_tampered_record_rejected () =
  let m = machine () in
  let acct = ok (Ssh_password.setup m ~cpu:0 ~user:"admin" ~password:"pw") in
  let r = acct.Ssh_password.sealed_record in
  let tampered =
    String.mapi
      (fun i c -> if i = String.length r / 2 then Char.chr (Char.code c lxor 1) else c)
      r
  in
  expect_error
    (Ssh_password.authenticate m ~cpu:0
       { acct with Ssh_password.sealed_record = tampered }
       ~password:"pw")

(* --- Rootkit detector --- *)

let test_rootkit_clean_and_infected () =
  let m = machine () in
  let image = Rootkit_detector.make_kernel_image ~seed:"vmlinuz-2.6.20" () in
  let whitelist = Rootkit_detector.whitelist_digest image in
  checkb "clean kernel" true (ok (Rootkit_detector.check m ~cpu:0 ~whitelist ~kernel_image:image));
  let infected = Rootkit_detector.infect image ~at:31337 in
  checkb "one-byte rootkit detected" false
    (ok (Rootkit_detector.check m ~cpu:0 ~whitelist ~kernel_image:infected))

let test_rootkit_verdict_attested () =
  (* The verdict is folded into PCR 17, so the post-session value differs
     between a clean run and an infected run — an attacker cannot replay a
     "clean" attestation. *)
  let image = Rootkit_detector.make_kernel_image ~seed:"k" () in
  let whitelist = Rootkit_detector.whitelist_digest image in
  let pcr_after verdict_image =
    let m = machine () in
    ignore (ok (Rootkit_detector.check m ~cpu:0 ~whitelist ~kernel_image:verdict_image));
    Sea_tpm.Tpm.pcr_read (Machine.tpm_exn m) 17
  in
  checkb "verdict changes the measurement chain" true
    (pcr_after image <> pcr_after (Rootkit_detector.infect image ~at:5))

let test_rootkit_deterministic_image () =
  checks "image deterministic"
    (Rootkit_detector.make_kernel_image ~seed:"a" ())
    (Rootkit_detector.make_kernel_image ~seed:"a" ());
  checkb "seed matters" true
    (Rootkit_detector.make_kernel_image ~seed:"a" ()
    <> Rootkit_detector.make_kernel_image ~seed:"b" ())

(* --- Distributed factoring --- *)

let test_factoring_small () =
  let m = machine () in
  let fs, sessions = ok (Factoring.run_to_completion m ~cpu:0 ~n:(2 * 3 * 5 * 7) ~range:10 ()) in
  Alcotest.(check (list int)) "factors" [ 2; 3; 5; 7 ] fs;
  checkb "at least one session" true (sessions >= 1)

let test_factoring_multi_session () =
  let m = machine () in
  (* 101 × 103 with a tiny range forces several seal/unseal round trips. *)
  let fs, sessions = ok (Factoring.run_to_completion m ~cpu:0 ~n:(101 * 103) ~range:25 ()) in
  Alcotest.(check (list int)) "factors" [ 101; 103 ] fs;
  checkb (Printf.sprintf "multiple sessions (got %d)" sessions) true (sessions >= 3)

let test_factoring_prime_input () =
  let m = machine () in
  let fs, _ = ok (Factoring.run_to_completion m ~cpu:0 ~n:9973 ~range:200 ()) in
  Alcotest.(check (list int)) "prime returns itself" [ 9973 ] fs

let test_factoring_state_integrity () =
  let m = machine () in
  (match Factoring.start m ~cpu:0 ~n:(101 * 103) ~range:10 with
  | Ok (Factoring.Running blob) ->
      (* The OS tampers with the sealed intermediate state. *)
      let tampered =
        String.mapi
          (fun i c -> if i = String.length blob / 2 then Char.chr (Char.code c lxor 1) else c)
          blob
      in
      expect_error (Factoring.step m ~cpu:0 ~blob:tampered ~range:10)
  | Ok (Factoring.Factored _) -> Alcotest.fail "finished too early for this test"
  | Error e -> Alcotest.fail e)

let test_factoring_session_budget () =
  let m = machine () in
  expect_error
    (Factoring.run_to_completion m ~cpu:0 ~n:(1_000_003 * 999_983) ~range:10
       ~max_sessions:3 ())

(* --- Cross-application isolation --- *)

let test_cross_app_seal_isolation () =
  (* The SSH PAL cannot unseal the CA's blob: different measurements. *)
  let m = machine () in
  let ca = ok (Cert_authority.init m ~cpu:0 ()) in
  let fake_acct = { Ssh_password.user = "x"; sealed_record = ca.Cert_authority.sealed_key } in
  expect_error (Ssh_password.authenticate m ~cpu:0 fake_acct ~password:"x")

let test_app_measurements_distinct () =
  let ms =
    List.map Sea_core.Pal.measurement
      [ Cert_authority.pal (); Ssh_password.pal (); Rootkit_detector.pal (); Factoring.pal () ]
  in
  checki "four distinct identities" 4 (List.length (List.sort_uniq String.compare ms))


(* --- BIND-style BGP attestation --- *)

let test_bgp_chain () =
  let m = machine () in
  let r1 = ok (Bgp_attest.init_router m ~cpu:0 ~asn:64512) in
  let r2 = ok (Bgp_attest.init_router m ~cpu:0 ~asn:64513) in
  let r3 = ok (Bgp_attest.init_router m ~cpu:0 ~asn:64514) in
  let u1 = ok (Bgp_attest.originate m ~cpu:0 r1 ~prefix:"10.0.0.0/8") in
  let u2 = ok (Bgp_attest.forward m ~cpu:0 r2 u1 ~predecessor:r1.Bgp_attest.public) in
  let u3 = ok (Bgp_attest.forward m ~cpu:0 r3 u2 ~predecessor:r2.Bgp_attest.public) in
  Alcotest.(check (list int)) "path accumulates" [ 64514; 64513; 64512 ]
    u3.Bgp_attest.as_path;
  let publics =
    [ (64512, r1.Bgp_attest.public); (64513, r2.Bgp_attest.public);
      (64514, r3.Bgp_attest.public) ]
  in
  checkb "route collector accepts the chain" true
    (Bgp_attest.verify_chain u3 ~publics)

let test_bgp_forged_hop_refused () =
  (* A compromised router OS injects an update with a fabricated last
     hop: the PAL's protected logic refuses to propagate it. *)
  let m = machine () in
  let r1 = ok (Bgp_attest.init_router m ~cpu:0 ~asn:1) in
  let r2 = ok (Bgp_attest.init_router m ~cpu:0 ~asn:2) in
  let u1 = ok (Bgp_attest.originate m ~cpu:0 r1 ~prefix:"192.168.0.0/16") in
  let forged = { u1 with Bgp_attest.as_path = [ 666 ] } in
  expect_error (Bgp_attest.forward m ~cpu:0 r2 forged ~predecessor:r1.Bgp_attest.public)

let test_bgp_path_tamper_detected () =
  let m = machine () in
  let r1 = ok (Bgp_attest.init_router m ~cpu:0 ~asn:1) in
  let r2 = ok (Bgp_attest.init_router m ~cpu:0 ~asn:2) in
  let u1 = ok (Bgp_attest.originate m ~cpu:0 r1 ~prefix:"172.16.0.0/12") in
  let u2 = ok (Bgp_attest.forward m ~cpu:0 r2 u1 ~predecessor:r1.Bgp_attest.public) in
  let publics = [ (1, r1.Bgp_attest.public); (2, r2.Bgp_attest.public); (666, r2.Bgp_attest.public) ] in
  checkb "genuine chain verifies" true (Bgp_attest.verify_chain u2 ~publics);
  (* Path shortening / AS replacement breaks the hop signatures. *)
  let tampered = { u2 with Bgp_attest.as_path = [ 2; 666 ] } in
  checkb "tampered path rejected" false (Bgp_attest.verify_chain tampered ~publics);
  let stripped =
    { u2 with Bgp_attest.signatures = List.tl u2.Bgp_attest.signatures;
      as_path = List.tl u2.Bgp_attest.as_path }
  in
  checkb "stripped hop still consistent (it is u1)" true
    (Bgp_attest.verify_chain stripped ~publics)

let test_bgp_wire_roundtrip () =
  let u = { Bgp_attest.prefix = "10.1.0.0/16"; as_path = [ 3; 2; 1 ];
            signatures = [ "s3"; "s2"; "s1" ] } in
  checkb "wire roundtrip" true
    (Bgp_attest.update_of_wire (Bgp_attest.wire_of_update u) = Some u);
  checkb "junk rejected" true (Bgp_attest.update_of_wire "junk" = None)

(* --- the same applications on the proposed hardware --- *)

let proposed () =
  Machine.create (Machine.low_fidelity (Machine.proposed_variant Machine.hp_dc5750))

let test_apps_on_proposed_hw () =
  let m = proposed () in
  checkb "dispatches to SLAUNCH" true
    (Sea_core.Exec.architecture m = Sea_core.Backend.Proposed);
  (* CA *)
  let ca = ok (Cert_authority.init m ~cpu:0 ()) in
  let cert = ok (Cert_authority.sign_csr m ~cpu:0 ca ~csr:"CN=slaunch") in
  checkb "CA works under SLAUNCH" true
    (Cert_authority.verify_certificate ca ~csr:"CN=slaunch" ~signature:cert);
  (* SSH *)
  let acct = ok (Ssh_password.setup m ~cpu:1 ~user:"u" ~password:"pw") in
  checkb "SSH grant" true (ok (Ssh_password.authenticate m ~cpu:0 acct ~password:"pw"));
  checkb "SSH deny" false (ok (Ssh_password.authenticate m ~cpu:1 acct ~password:"xx"))

let test_factoring_on_proposed_hw () =
  let m = proposed () in
  let fs, sessions = ok (Factoring.run_to_completion m ~cpu:0 ~n:(101 * 103) ~range:25 ()) in
  Alcotest.(check (list int)) "factors under SLAUNCH" [ 101; 103 ] fs;
  checkb "multiple sessions" true (sessions >= 3)

let test_sealed_state_stays_architecture_bound () =
  (* State sealed under a Flicker session (PCR policy) does not unseal
     under a SLAUNCH session (sePCR binding) and vice versa — different
     protection roots. *)
  let mc = machine () in
  let acct = ok (Ssh_password.setup mc ~cpu:0 ~user:"u" ~password:"pw") in
  let mp = proposed () in
  (* Same TPM vendor family but a different machine instance anyway;
     the point stands within one machine too, but cross-machine is the
     realistic replay. *)
  expect_error (Ssh_password.authenticate mp ~cpu:0 acct ~password:"pw")

let () =
  Alcotest.run "apps"
    [
      ( "codec",
        [
          Alcotest.test_case "command roundtrip" `Quick test_codec_command_roundtrip;
          Alcotest.test_case "rsa key roundtrip" `Quick test_codec_rsa_roundtrip;
          Alcotest.test_case "inconsistent rsa key rejected" `Quick
            test_codec_rejects_inconsistent_key;
        ] );
      ( "cert-authority",
        [
          Alcotest.test_case "issue and verify" `Quick test_ca_issue_and_verify;
          Alcotest.test_case "key never leaves sealed" `Quick test_ca_key_never_leaves_sealed;
          Alcotest.test_case "distinct instances" `Quick test_ca_distinct_instances;
        ] );
      ( "ssh-password",
        [
          Alcotest.test_case "authentication flow" `Quick test_ssh_auth_flow;
          Alcotest.test_case "record opaque to OS" `Quick test_ssh_record_opaque_to_os;
          Alcotest.test_case "tampered record rejected" `Quick test_ssh_tampered_record_rejected;
        ] );
      ( "rootkit-detector",
        [
          Alcotest.test_case "clean vs infected" `Quick test_rootkit_clean_and_infected;
          Alcotest.test_case "verdict attested" `Quick test_rootkit_verdict_attested;
          Alcotest.test_case "deterministic image" `Quick test_rootkit_deterministic_image;
        ] );
      ( "factoring",
        [
          Alcotest.test_case "small composite" `Quick test_factoring_small;
          Alcotest.test_case "multi-session" `Quick test_factoring_multi_session;
          Alcotest.test_case "prime input" `Quick test_factoring_prime_input;
          Alcotest.test_case "state integrity" `Quick test_factoring_state_integrity;
          Alcotest.test_case "session budget" `Quick test_factoring_session_budget;
        ] );
      ( "bgp-attest",
        [
          Alcotest.test_case "attested chain" `Quick test_bgp_chain;
          Alcotest.test_case "forged hop refused" `Quick test_bgp_forged_hop_refused;
          Alcotest.test_case "path tamper detected" `Quick test_bgp_path_tamper_detected;
          Alcotest.test_case "wire roundtrip" `Quick test_bgp_wire_roundtrip;
        ] );
      ( "proposed-hw",
        [
          Alcotest.test_case "CA and SSH under SLAUNCH" `Quick test_apps_on_proposed_hw;
          Alcotest.test_case "factoring under SLAUNCH" `Quick test_factoring_on_proposed_hw;
          Alcotest.test_case "state architecture-bound" `Quick
            test_sealed_state_stays_architecture_bound;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "cross-app seal isolation" `Quick test_cross_app_seal_isolation;
          Alcotest.test_case "distinct app identities" `Quick test_app_measurements_distinct;
        ] );
    ]
