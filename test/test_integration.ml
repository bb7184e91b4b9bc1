(* Integration tests spanning the whole stack: the complete remote
   attestation protocol (verifier ↔ platform), sealed-state workflows on
   every modelled machine, cross-machine seal isolation, reboot semantics,
   the §5.7 context-switch comparison, and the faster-TPM ablation. *)

open Sea_sim
open Sea_hw
open Sea_core

let checkb = Alcotest.(check bool)

let ok = function Ok x -> x | Error e -> Alcotest.fail e
let expect_error = function Error _ -> () | Ok _ -> Alcotest.fail "expected error"

(* --- The full remote-attestation protocol of §2.1.1 / §3.1 --- *)

let test_remote_attestation_protocol () =
  (* A verifier wants proof that the rootkit detector ran, with hardware
     protection, on the challenged platform, and saw a clean kernel. *)
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let pal = Sea_apps.Rootkit_detector.pal () in
  let image = Sea_apps.Rootkit_detector.make_kernel_image ~seed:"good" () in
  let whitelist = Sea_apps.Rootkit_detector.whitelist_digest image in
  (* 1. Verifier issues a fresh nonce. *)
  let nonce = "freshly-drawn-nonce" in
  (* 2. Platform runs the PAL and produces a quote. *)
  checkb "detector ran clean" true
    (ok (Sea_apps.Rootkit_detector.check m ~cpu:0 ~whitelist ~kernel_image:image));
  let q, _ = ok (Session.quote m ~nonce) in
  let evidence = Attestation.gather m q in
  (* 3. Verifier recomputes the expected chain: identity, then the clean
     verdict extension, then the exit marker. *)
  let verdict_ext =
    Sea_crypto.Sha1.digest ("verdict:clean" ^ Sea_crypto.Sha256.digest image)
  in
  let expected =
    Sea_crypto.Sha1.digest
      (Sea_crypto.Sha1.digest (Pal.identity pal ^ verdict_ext)
      ^ Session.exit_marker)
  in
  ok
    (Attestation.verify ~ca:(Sea_tpm.Tpm.privacy_ca_public ()) ~nonce
       (Attestation.Dynamic_pcrs [ (17, expected) ])
       evidence);
  (* 4. An infected platform cannot produce that chain. *)
  let m2 = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let infected = Sea_apps.Rootkit_detector.infect image ~at:99 in
  checkb "detector flagged rootkit" false
    (ok (Sea_apps.Rootkit_detector.check m2 ~cpu:0 ~whitelist ~kernel_image:infected));
  let q2, _ = ok (Session.quote m2 ~nonce) in
  expect_error
    (Attestation.verify ~ca:(Sea_tpm.Tpm.privacy_ca_public ()) ~nonce
       (Attestation.Dynamic_pcrs [ (17, expected) ])
       (Attestation.gather m2 q2))

let test_attestation_across_architectures () =
  (* The same PAL attests on AMD (PCR 17) and Intel (PCR 18). *)
  List.iter
    (fun preset ->
      let m = Machine.create (Machine.low_fidelity preset) in
      let pal = Generic.pal_gen () in
      ignore (ok (Session.execute m ~cpu:0 pal ~input:""));
      let q, _ = ok (Session.quote m ~nonce:"n") in
      ok
        (Attestation.verify ~ca:(Sea_tpm.Tpm.privacy_ca_public ()) ~nonce:"n"
           (Attestation.expect_session_exit m pal)
           (Attestation.gather m q)))
    [ Machine.hp_dc5750; Machine.intel_tep; Machine.lenovo_t60; Machine.amd_infineon ]

(* At full fidelity (2048-bit SRK and AIK), evidence gathered after a
   session verifies, and carries the pinned Broadcom AIK certificate. *)
let test_attestation_full_fidelity_round_trip () =
  let m = Machine.create Machine.hp_dc5750 in
  let pal = Generic.pal_gen () in
  ignore (ok (Session.execute m ~cpu:0 pal ~input:""));
  let q, _ = ok (Session.quote m ~nonce:"full-fidelity") in
  let evidence = Attestation.gather m q in
  Alcotest.(check string) "certificate digest"
    "756386663528eb77c64e5518e7ed668043e2e168e3d0e2afce3a8776177bd40a"
    (Sea_crypto.Sha256.hex evidence.Attestation.aik_cert);
  ok
    (Attestation.verify ~ca:(Sea_tpm.Tpm.privacy_ca_public ()) ~nonce:"full-fidelity"
       (Attestation.expect_session_exit m pal)
       evidence)

(* --- Launch pins: measurement and identity PCR of every shipped PAL --- *)

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Each shipped PAL with an input its behaviour accepts. *)
let shipped_pals () =
  let image = Sea_apps.Rootkit_detector.make_kernel_image ~size:1024 ~seed:"pin" () in
  let codec = Sea_apps.Codec.command in
  List.map
    (fun k ->
      ( "workload " ^ Sea_serve.Workload.kind_name k,
        Sea_serve.Workload.pal k,
        Sea_serve.Workload.init_input k ~tenant:"t0" ))
    Sea_serve.Workload.kinds
  @ [
      ("ssh-password", Sea_apps.Ssh_password.pal (), codec "setup" [ "alice"; "pw" ]);
      ("cert-authority", Sea_apps.Cert_authority.pal (), codec "init" []);
      ("factoring", Sea_apps.Factoring.pal (), codec "start" [ "221"; "100" ]);
      ( "rootkit-detector",
        Sea_apps.Rootkit_detector.pal (),
        codec "check" [ Sea_apps.Rootkit_detector.whitelist_digest image; image ] );
      ("bgp-attest", Sea_apps.Bgp_attest.pal (), codec "init" [ "64512" ]);
    ]

(* Captured before launch digests were cached: the measurement SKINIT
   takes, and the identity PCR after one session (exit marker
   included). PCR 17 on an AMD dc5750 and PCR 18 on an Intel TEP carry
   the same chain. *)
let launch_pins =
  [
    ( "workload ssh-auth",
      ("c03928ce13787eab572d79a014247bacf78ee8a1", "369eb29e21ef76e28bec45d23d826219f25ecaf2") );
    ( "workload ca-sign",
      ("649e056001a9804debcf81e94a746c93a141d060", "79b431edc1944d721dfbcd718fe2d5d94b3a033a") );
    ( "workload kv-update",
      ("cabe14a2cb099a00b3de1c58784af016e3e58acf", "f39ef2009c30c9a24ca3ad521db264166f7b588b") );
    ( "ssh-password",
      ("9ec99976dc08e2598eadc7cb1f6eef47b696cf0e", "3d993a93668fe516bf8388d550a8d2594f12e2aa") );
    ( "cert-authority",
      ("cac0a362f840c1371989d08773763a98d8aa1a71", "da7b4967fff33022720b645c99541aefe43f8e83") );
    ( "factoring",
      ("96f78820c990d5d4e68db5c027ec5757dd04143b", "cf1357870cfff59503cd7e75c10306846caa42d3") );
    ( "rootkit-detector",
      ("d423a5f6e5a99818c9fefa4fb31609d33355bf40", "d2f85def63cf0c2b2289ef48115ceecc866b25bf") );
    ( "bgp-attest",
      ("b52fa5a3021ec48e05b2f77feda84de705a1d89a", "4127d2b404905e88cc775cb2965b4c7adf0a516f") );
  ]

let test_launch_pins () =
  let checks = Alcotest.(check string) in
  List.iter
    (fun (name, pal, input) ->
      let measurement, identity = List.assoc name launch_pins in
      checks (name ^ " measurement") measurement (hex (Pal.measurement pal));
      List.iter
        (fun (preset, pcr) ->
          let m = Machine.create (Machine.low_fidelity preset) in
          let o = ok (Session.execute m ~cpu:0 pal ~input) in
          checks (name ^ " measured") measurement (hex o.Session.measurement);
          checks
            (Printf.sprintf "%s PCR %d" name pcr)
            identity
            (hex (Sea_tpm.Tpm.pcr_read (Machine.tpm_exn m) pcr)))
        [ (Machine.hp_dc5750, 17); (Machine.intel_tep, 18) ])
    (shipped_pals ())

(* SHA1(0^20 ‖ measurement) of each PAL above, computed outside the
   simulator: the sePCR after a first SLAUNCH and the root of an SFI
   session's chain both hold it. *)
let launch_identity_pins =
  [
    ("workload ssh-auth", "981764b2765a0156e95dba696ba5243471d73fa9");
    ("workload ca-sign", "017d184e09157187ec264e49158c1d19f7fd91d8");
    ("workload kv-update", "4e73a001ab9f9956fc7f9afd59021bc79083e844");
    ("ssh-password", "28fb76b7939079a6954939b65727e8b0cc79b10b");
    ("cert-authority", "d275879dc6c033b7a9ecc0b52a95c34f843b61aa");
    ("factoring", "71454a85e24146397ebbb55431811e896f743373");
    ("rootkit-detector", "94b2d1ab91799dcfca1b41055c1cfa64dcfa688b");
    ("bgp-attest", "3c63fd7e8de5e28b0e62b5b5f2d981c260b23f12");
  ]

(* On a proposed dc5750: the measurement a first SLAUNCH of a fresh SECB
   reports, the sePCR after [Slaunch_session.start], and the chain root
   after [Sfi_session.start]. *)
let test_slaunch_and_sfi_pins () =
  let checks = Alcotest.(check string) in
  List.iter
    (fun (name, pal, input) ->
      let measurement, _ = List.assoc name launch_pins in
      let identity = List.assoc name launch_identity_pins in
      let m = Machine.create (Machine.low_fidelity (Machine.proposed_variant Machine.hp_dc5750)) in
      let pages = Machine.alloc_pages m (1 + Pal.pages_needed pal) in
      let secb =
        Secb.create ~id:(Machine.fresh_secb_id m) ~pages ~entry_point:0
          ~pal_length:(Pal.code_size pal) ()
      in
      Memory.write_span (Memctrl.memory m.Machine.memctrl) ~pages:(Secb.data_pages secb) ~off:0
        pal.Pal.code;
      (match ok (Insn.slaunch m ~cpu:1 secb) with
      | Insn.Launched d -> checks (name ^ " SLAUNCH measurement") measurement (hex d)
      | Insn.Resumed -> Alcotest.fail "fresh SECB resumed");
      let s = ok (Slaunch_session.start m ~cpu:0 pal ~input) in
      checks (name ^ " sePCR") identity
        (hex
           (ok
              (Sea_tpm.Tpm.sepcr_read (Machine.tpm_exn m) ~caller:(Sea_tpm.Tpm.Cpu 0)
                 (Option.get (Slaunch_session.sepcr_handle s)))));
      let sfi = ok (Sfi_session.start m ~cpu:2 pal ~input) in
      checks (name ^ " SFI chain root") identity (hex (Sfi_session.chain sfi)))
    (shipped_pals ())

(* A PAL's digests are its code's: the measurement is SHA-1 of the
   bytes, the identity one extend of it from zero. A resident PAL is one
   shared value per kind, measuring as its kind's PAL. *)
let test_pal_owns_its_digests () =
  let sha1 = Sea_crypto.Sha1.digest in
  List.iter
    (fun (name, pal, _) ->
      checkb (name ^ " measurement") true (Pal.measurement pal = sha1 pal.Pal.code);
      checkb (name ^ " identity") true
        (Pal.identity pal = sha1 (String.make 20 '\000' ^ Pal.measurement pal)))
    (shipped_pals ());
  List.iter
    (fun k ->
      let name = Sea_serve.Workload.kind_name k in
      let resident = Sea_serve.Workload.resident_pal k in
      checkb (name ^ " resident shared") true (resident == Sea_serve.Workload.resident_pal k);
      checkb (name ^ " resident measurement") true
        (Pal.measurement resident = Pal.measurement (Sea_serve.Workload.pal k)))
    Sea_serve.Workload.kinds

(* --- Sealed state is platform-bound --- *)

let test_seal_does_not_travel_across_machines () =
  let m1 = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let m2 = Machine.create (Machine.low_fidelity Machine.amd_infineon) in
  let blob =
    (ok (Session.execute m1 ~cpu:0 (Generic.pal_gen ()) ~input:"")).Session.output
  in
  (* The same PAL on a different machine (different SRK) cannot unseal. *)
  expect_error (Session.execute m2 ~cpu:0 (Generic.pal_use ()) ~input:blob)

let test_seal_survives_reboot_same_pal () =
  (* Dynamic PCR policies are reconstructed by a fresh late launch, so a
     reboot between Gen and Use is harmless — the whole point of sealed
     storage for long-running computations. *)
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let blob =
    (ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"")).Session.output
  in
  Sea_tpm.Tpm.reboot (Machine.tpm_exn m);
  let out =
    (ok (Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:blob)).Session.output
  in
  checkb "unsealed after reboot" true (String.length out > 0)

let test_reboot_distinguishable_by_verifier () =
  (* After a reboot (no late launch yet), PCR 17 is -1: a verifier can
     tell no PAL has run since boot (§2.1.3). *)
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  ignore (ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"")) ;
  Sea_tpm.Tpm.reboot (Machine.tpm_exn m);
  let q, _ = ok (Session.quote m ~nonce:"n") in
  let pcr17 = List.assoc 17 q.Sea_tpm.Tpm.selection in
  checkb "PCR17 reads -1 after reboot" true (pcr17 = String.make 20 '\xff')

(* --- §5.7: the context-switch comparison, end to end --- *)

let test_context_switch_six_orders () =
  (* Current hardware: a context switch of PAL state = Seal + (SKINIT +
     Unseal). Proposed hardware: SYIELD + SLAUNCH(resume). *)
  let mc = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let gen = (ok (Session.execute mc ~cpu:0 (Generic.pal_gen ()) ~input:"")) in
  let t0 = Machine.now mc in
  ignore (ok (Session.execute mc ~cpu:0 (Generic.pal_use ()) ~input:gen.Session.output));
  let current = Time.sub (Machine.now mc) t0 in
  let mp =
    Machine.create (Machine.low_fidelity (Machine.proposed_variant Machine.hp_dc5750))
  in
  let pal =
    Pal.create ~name:"switcher" ~code_size:8192 ~compute_time:(Time.ms 10.)
      (fun _ _ -> Ok "")
  in
  let s = ok (Slaunch_session.start mp ~cpu:0 ~preemption_timer:(Time.ms 5.) pal ~input:"") in
  (match ok (Slaunch_session.run_slice s ~cpu:0 ()) with
  | `Yielded -> ()
  | `Finished -> Alcotest.fail "expected a yield");
  let t0 = Machine.now mp in
  ok (Slaunch_session.resume s ~cpu:0);
  let proposed = Time.sub (Machine.now mp) t0 in
  ignore (ok (Slaunch_session.run_slice s ~cpu:0 ()));
  Slaunch_session.release s;
  let ratio = Time.to_s current /. Time.to_s proposed in
  checkb
    (Printf.sprintf "≥5 orders of magnitude (ratio %.2e)" ratio)
    true
    (ratio > 1e5)

let test_faster_tpm_ablation () =
  (* §5.7's alternative: just speed the TPM up. Even a 1000x faster
     Broadcom leaves PAL Use near a millisecond — still ~3 orders above
     the proposed hardware's switch cost. *)
  let profile = Sea_tpm.Timing.scaled (Sea_tpm.Timing.profile Sea_tpm.Vendor.Broadcom)
      ~factor:0.001 in
  let cfg =
    { (Machine.low_fidelity Machine.hp_dc5750) with Machine.tpm_profile = Some profile }
  in
  let m = Machine.create cfg in
  let gen = ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"") in
  let use = ok (Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:gen.Session.output) in
  let overhead = Time.to_ms (Session.overhead use.Session.breakdown) in
  checkb (Printf.sprintf "1000x TPM still ~1 ms overhead (got %.3f)" overhead) true
    (overhead > 0.5);
  checkb "but far below stock" true (overhead < 50.)

(* --- Long-running workflow: factoring with interleaved reboots --- *)

let test_factoring_survives_reboot () =
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  match Sea_apps.Factoring.start m ~cpu:0 ~n:(101 * 103) ~range:20 with
  | Error e -> Alcotest.fail e
  | Ok (Sea_apps.Factoring.Factored _) -> Alcotest.fail "too fast for this test"
  | Ok (Sea_apps.Factoring.Running blob) ->
      Sea_tpm.Tpm.reboot (Machine.tpm_exn m);
      let rec drive blob n =
        if n > 50 then Alcotest.fail "did not converge"
        else
          match Sea_apps.Factoring.step m ~cpu:0 ~blob ~range:20 with
          | Error e -> Alcotest.fail e
          | Ok (Sea_apps.Factoring.Running b) -> drive b (n + 1)
          | Ok (Sea_apps.Factoring.Factored fs) -> fs
      in
      Alcotest.(check (list int)) "factors survive reboot" [ 101; 103 ] (drive blob 0)

(* --- Whole-stack determinism --- *)

let test_simulation_deterministic () =
  (* Two fresh machines with the same configuration produce identical
     timing for the same workload — the property every benchmark in this
     repository rests on. *)
  let run () =
    let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
    ignore (ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:""));
    Time.to_ns (Machine.now m)
  in
  Alcotest.(check int) "identical simulated timelines" (run ()) (run ())

let () =
  Alcotest.run "integration"
    [
      ( "attestation",
        [
          Alcotest.test_case "remote attestation protocol" `Quick
            test_remote_attestation_protocol;
          Alcotest.test_case "across architectures" `Slow test_attestation_across_architectures;
          Alcotest.test_case "full-fidelity round trip" `Quick
            test_attestation_full_fidelity_round_trip;
        ] );
      ( "launch-pins",
        [
          Alcotest.test_case "shipped PALs" `Quick test_launch_pins;
          Alcotest.test_case "SLAUNCH and SFI" `Quick test_slaunch_and_sfi_pins;
        ] );
      ( "pal-identity",
        [ Alcotest.test_case "shipped PALs and residents" `Quick test_pal_owns_its_digests ] );
      ( "sealed-state",
        [
          Alcotest.test_case "platform-bound" `Quick test_seal_does_not_travel_across_machines;
          Alcotest.test_case "survives reboot" `Quick test_seal_survives_reboot_same_pal;
          Alcotest.test_case "reboot visible to verifier" `Quick
            test_reboot_distinguishable_by_verifier;
          Alcotest.test_case "factoring across a reboot" `Quick test_factoring_survives_reboot;
        ] );
      ( "impact",
        [
          Alcotest.test_case "§5.7 six-orders comparison" `Quick test_context_switch_six_orders;
          Alcotest.test_case "faster-TPM ablation" `Quick test_faster_tpm_ablation;
        ] );
      ( "determinism",
        [ Alcotest.test_case "simulation deterministic" `Quick test_simulation_deterministic ] );
    ]
