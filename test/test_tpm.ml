(* TPM model tests: PCR bank semantics (static vs dynamic, reboot vs
   dynamic reset), extend chaining, composites, the TPM_HASH_* locality
   rules, sealed-storage policy enforcement, quote signatures, GetRandom,
   the Figure 3 timing anchors per vendor, sePCR state machine and access
   control, and the multi-CPU command lock. *)

open Sea_sim
open Sea_crypto
open Sea_tpm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let fresh ?(vendor = Vendor.Broadcom) ?(sepcr_count = 0) () =
  let e = Engine.create () in
  (e, Tpm.create ~vendor ~key_bits:512 ~sepcr_count e)

let zero20 = String.make 20 '\000'
let ones20 = String.make 20 '\xff'

(* --- PCR bank --- *)

let test_pcr_reset_semantics () =
  let bank = Pcr.create () in
  checks "static PCR boots to zero" zero20 (Pcr.read bank 0);
  checks "dynamic PCR boots to -1" ones20 (Pcr.read bank 17);
  Pcr.dynamic_reset bank;
  checks "dynamic reset to zero" zero20 (Pcr.read bank 17);
  ignore (Pcr.extend bank 0 "m");
  ignore (Pcr.extend bank 17 "m");
  Pcr.reboot bank;
  checks "reboot clears static" zero20 (Pcr.read bank 0);
  checks "reboot sets dynamic to -1" ones20 (Pcr.read bank 17)

let test_pcr_extend_chain () =
  let bank = Pcr.create () in
  Pcr.dynamic_reset bank;
  let m = Sha1.digest "code" in
  let v1 = Pcr.extend bank 17 m in
  checks "extend formula" (Sha1.digest (zero20 ^ m)) v1;
  let v2 = Pcr.extend bank 17 m in
  checks "chains on previous" (Sha1.digest (v1 ^ m)) v2;
  checkb "order matters" true
    (let b1 = Pcr.create () and b2 = Pcr.create () in
     ignore (Pcr.extend b1 0 "a");
     ignore (Pcr.extend b1 0 "b");
     ignore (Pcr.extend b2 0 "b");
     ignore (Pcr.extend b2 0 "a");
     Pcr.read b1 0 <> Pcr.read b2 0)

let test_pcr_extend_hashes_long_input () =
  let bank = Pcr.create () in
  let long = String.make 1000 'x' in
  let v = Pcr.extend bank 0 long in
  checks "non-digest input hashed first" (Sha1.digest (zero20 ^ Sha1.digest long)) v

let test_pcr_bounds () =
  let bank = Pcr.create () in
  Alcotest.check_raises "read out of range" (Invalid_argument "Pcr: index 24 out of range")
    (fun () -> ignore (Pcr.read bank 24));
  Alcotest.check_raises "negative index" (Invalid_argument "Pcr: index -1 out of range")
    (fun () -> ignore (Pcr.read bank (-1)))

let test_pcr_composite () =
  let bank = Pcr.create () in
  ignore (Pcr.extend bank 3 "x");
  let c1 = Pcr.composite bank [ 3; 17 ] in
  let c2 = Pcr.composite bank [ 17; 3 ] in
  checks "selection order canonicalized" c1 c2;
  let c3 = Pcr.composite_of_values [ (3, Pcr.read bank 3); (17, Pcr.read bank 17) ] in
  checks "verifier-side computation matches" c1 c3;
  checkb "different values different composite" true
    (ignore (Pcr.extend bank 3 "y");
     Pcr.composite bank [ 3; 17 ] <> c1);
  Alcotest.check_raises "duplicate index"
    (Invalid_argument "Pcr.composite: duplicate index") (fun () ->
      ignore (Pcr.composite bank [ 3; 3 ]))

let prop_pcr_commits_to_history =
  QCheck.Test.make ~name:"distinct extension histories give distinct PCR values"
    ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 5) small_string)
              (list_of_size (QCheck.Gen.int_range 0 5) small_string))
    (fun (h1, h2) ->
      QCheck.assume (h1 <> h2);
      let run h =
        let bank = Pcr.create () in
        List.iter (fun m -> ignore (Pcr.extend bank 0 m)) h;
        Pcr.read bank 0
      in
      run h1 <> run h2)

(* --- TPM_HASH_* sequence --- *)

let test_hash_sequence_locality () =
  let _, tpm = fresh () in
  checkb "software cannot HASH_START" true
    (Tpm.hash_start tpm ~caller:Tpm.Software = Error "TPM_HASH_START is a hardware-only command");
  checkb "hardware can" true (Tpm.hash_start tpm ~caller:(Tpm.Cpu 0) = Ok ());
  checkb "data accepted in session" true (Tpm.hash_data tpm "abc" = Ok ());
  (match Tpm.hash_end tpm with
  | Ok v -> checks "PCR17 = extend(0, H(abc))" (Sha1.digest (zero20 ^ Sha1.digest "abc")) v
  | Error e -> Alcotest.fail e);
  checkb "data outside session rejected" true
    (Tpm.hash_data tpm "x" = Error "no open hash session");
  checkb "end outside session rejected" true
    (match Tpm.hash_end tpm with Error _ -> true | Ok _ -> false)

let test_hash_start_resets_dynamic () =
  let _, tpm = fresh () in
  checks "PCR17 = -1 after boot" ones20 (Tpm.pcr_read tpm 17);
  ignore (Tpm.hash_start tpm ~caller:(Tpm.Cpu 0));
  checks "PCR17 reset to 0" zero20 (Tpm.pcr_read tpm 17);
  checks "PCR23 reset too" zero20 (Tpm.pcr_read tpm 23);
  checkb "static PCR untouched" true (Tpm.pcr_read tpm 0 = zero20)

let test_hash_chunked_equals_whole () =
  let _, tpm1 = fresh () in
  let _, tpm2 = fresh () in
  let code = String.init 300 (fun i -> Char.chr (i mod 251)) in
  ignore (Tpm.hash_start tpm1 ~caller:(Tpm.Cpu 0));
  ignore (Tpm.hash_data tpm1 code);
  let v1 = Result.get_ok (Tpm.hash_end tpm1) in
  ignore (Tpm.hash_start tpm2 ~caller:(Tpm.Cpu 0));
  String.iter (fun c -> ignore (Tpm.hash_data tpm2 (String.make 1 c))) code;
  let v2 = Result.get_ok (Tpm.hash_end tpm2) in
  checks "chunking irrelevant to measurement" v1 v2

(* --- Sealed storage --- *)

let test_seal_unseal_roundtrip () =
  let _, tpm = fresh () in
  let caller = Tpm.Cpu 0 in
  let policy = [ (17, Tpm.pcr_read tpm 17) ] in
  let blob = Result.get_ok (Tpm.seal tpm ~caller ~pcr_policy:policy "secret") in
  checkb "blob is opaque" true (blob <> "secret");
  checkb "unseals under matching policy" true
    (Tpm.unseal tpm ~caller blob = Ok "secret")

let test_unseal_policy_mismatch () =
  let _, tpm = fresh () in
  let caller = Tpm.Cpu 0 in
  let policy = [ (17, Tpm.pcr_read tpm 17) ] in
  let blob = Result.get_ok (Tpm.seal tpm ~caller ~pcr_policy:policy "secret") in
  ignore (Tpm.pcr_extend tpm 17 "different code");
  checkb "policy mismatch refused" true
    (Tpm.unseal tpm ~caller blob = Error "PCR policy mismatch")

let test_unseal_wrong_tpm () =
  let _, tpm1 = fresh ~vendor:Vendor.Broadcom () in
  let _, tpm2 = fresh ~vendor:Vendor.Infineon () in
  let caller = Tpm.Cpu 0 in
  let blob = Result.get_ok (Tpm.seal tpm1 ~caller ~pcr_policy:[] "secret") in
  (match Tpm.unseal tpm2 ~caller blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign TPM unsealed the blob")

let test_unseal_corrupted_blob () =
  let _, tpm = fresh () in
  let caller = Tpm.Cpu 0 in
  let blob = Result.get_ok (Tpm.seal tpm ~caller ~pcr_policy:[] "secret") in
  let t = String.mapi (fun i c -> if i = String.length blob - 1 then Char.chr (Char.code c lxor 1) else c) blob in
  (match Tpm.unseal tpm ~caller t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted blob unsealed");
  (match Tpm.unseal tpm ~caller "garbage" with
  | Error "corrupted blob" -> ()
  | _ -> Alcotest.fail "garbage should be rejected as corrupt")

let test_seal_large_payload () =
  let _, tpm = fresh () in
  let caller = Tpm.Cpu 0 in
  let payload = String.make 8192 'p' in
  let blob = Result.get_ok (Tpm.seal tpm ~caller ~pcr_policy:[] payload) in
  checkb "8 KB payload roundtrips" true (Tpm.unseal tpm ~caller blob = Ok payload);
  checkb "oversized refused" true
    (Tpm.seal tpm ~caller ~pcr_policy:[] (String.make (65 * 1024) 'x')
    = Error "payload too large")

let test_seal_multi_pcr_policy () =
  let _, tpm = fresh () in
  let caller = Tpm.Cpu 0 in
  let policy = [ (17, Tpm.pcr_read tpm 17); (18, Tpm.pcr_read tpm 18) ] in
  let blob = Result.get_ok (Tpm.seal tpm ~caller ~pcr_policy:policy "s") in
  checkb "both match" true (Tpm.unseal tpm ~caller blob = Ok "s");
  ignore (Tpm.pcr_extend tpm 18 "x");
  checkb "one mismatch suffices to refuse" true
    (Tpm.unseal tpm ~caller blob = Error "PCR policy mismatch")

(* --- Quote --- *)

let test_quote_verifies () =
  let _, tpm = fresh () in
  let q =
    Result.get_ok
      (Tpm.quote tpm ~caller:Tpm.Software ~selection:[ 17; 18 ] ~nonce:"n1" ())
  in
  checkb "verifies under AIK" true (Tpm.verify_quote ~aik:(Tpm.aik_public tpm) q);
  checki "selection size" 2 (List.length q.Tpm.selection);
  checks "nonce embedded" "n1" q.Tpm.nonce

let test_quote_tamper_detected () =
  let _, tpm = fresh () in
  let q = Result.get_ok (Tpm.quote tpm ~caller:Tpm.Software ~selection:[ 17 ] ~nonce:"n" ()) in
  let bad_nonce = { q with Tpm.nonce = "other" } in
  checkb "nonce swap detected" false (Tpm.verify_quote ~aik:(Tpm.aik_public tpm) bad_nonce);
  let bad_pcr =
    { q with Tpm.selection = List.map (fun (i, _) -> (i, zero20)) q.Tpm.selection }
  in
  checkb "value swap detected" false (Tpm.verify_quote ~aik:(Tpm.aik_public tpm) bad_pcr);
  let _, other = fresh ~vendor:Vendor.Infineon () in
  checkb "wrong AIK" false (Tpm.verify_quote ~aik:(Tpm.aik_public other) q)

let test_aik_certificate () =
  let _, tpm = fresh () in
  let ca = Tpm.privacy_ca_public () in
  checkb "certificate chains" true
    (Tpm.verify_aik_certificate ~ca ~aik:(Tpm.aik_public tpm) (Tpm.aik_certificate tpm));
  let _, other = fresh ~vendor:Vendor.Infineon () in
  checkb "cert bound to key" false
    (Tpm.verify_aik_certificate ~ca ~aik:(Tpm.aik_public other) (Tpm.aik_certificate tpm))

(* Known answers captured while every TPM signed its AIK certificate
   at construction: certifying on first use must give the same bytes. *)
let test_aik_certificate_known_answers () =
  List.iter
    (fun (key_bits, expected) ->
      let tpm = Tpm.create ~key_bits (Engine.create ()) in
      checks (Printf.sprintf "Broadcom/%d certificate" key_bits) expected
        (Sha256.hex (Tpm.aik_certificate tpm)))
    [
      (512, "ba06815f8aa7c0d4c1d77cf2b71fa1196395da63b8673b7f06b9a47c0f3e3327");
      (2048, "756386663528eb77c64e5518e7ed668043e2e168e3d0e2afce3a8776177bd40a");
    ]

(* --- GetRandom --- *)

let test_get_random () =
  let _, tpm = fresh () in
  let a = Tpm.get_random tpm 128 in
  let b = Tpm.get_random tpm 128 in
  checki "length" 128 (String.length a);
  checkb "stream advances" true (a <> b)

(* --- Timing anchors (Figure 3) --- *)

let op_time tpm f =
  let e = Tpm.engine tpm in
  let t0 = Engine.now e in
  f ();
  Time.to_ms (Time.sub (Engine.now e) t0)

let test_figure3_anchors () =
  (* The text's hard anchors: Broadcom Seal small-payload 11.39 ms,
     Infineon Unseal 390.98 ms, Broadcom slowest Quote, and the 1132 ms
     (quote+unseal) gap between Broadcom and Infineon. *)
  let _, broadcom = fresh ~vendor:Vendor.Broadcom () in
  let _, infineon = fresh ~vendor:Vendor.Infineon () in
  let caller = Tpm.Cpu 0 in
  let seal_b = op_time broadcom (fun () ->
      ignore (Tpm.seal broadcom ~caller ~pcr_policy:[] "")) in
  checkb "Broadcom seal ~11.39 ms" true (abs_float (seal_b -. 11.39) < 1.0);
  let blob = Result.get_ok (Tpm.seal infineon ~caller ~pcr_policy:[] "") in
  let unseal_i = op_time infineon (fun () -> ignore (Tpm.unseal infineon ~caller blob)) in
  checkb "Infineon unseal ~391+ ms" true (abs_float (unseal_i -. 399.) < 15.);
  let quote_b = op_time broadcom (fun () ->
      ignore (Tpm.quote broadcom ~caller:Tpm.Software ~selection:[ 17 ] ~nonce:"n" ())) in
  let quote_i = op_time infineon (fun () ->
      ignore (Tpm.quote infineon ~caller:Tpm.Software ~selection:[ 17 ] ~nonce:"n" ())) in
  checkb "Broadcom quote ~953 ms" true (abs_float (quote_b -. 953.) < 20.);
  checkb "Broadcom slowest quote" true (quote_b > quote_i)

let test_vendor_profiles_ordered () =
  (* Sanity of the calibration table: seal spans 20-500 ms and unseal
     290-900 ms across vendors (§5.7). *)
  let profiles = List.map Timing.profile Vendor.measured in
  let seal_ms p = Time.to_ms (Timing.seal_time p ~payload_bytes:256) in
  let unseal_ms p = Time.to_ms (Timing.unseal_time p ~payload_bytes:256) in
  let seals = List.map seal_ms profiles and unseals = List.map unseal_ms profiles in
  checkb "min seal ~20 ms" true (List.fold_left min infinity seals < 25.);
  checkb "max seal ~500 ms" true (List.fold_left max 0. seals > 450.);
  checkb "min unseal >= ~290 ms" true (List.fold_left min infinity unseals > 280.);
  checkb "max unseal ~900 ms" true (List.fold_left max 0. unseals > 850.)

let test_scaled_profile () =
  let p = Timing.profile Vendor.Broadcom in
  let fast = Timing.scaled p ~factor:0.1 in
  checkb "10x faster seal" true
    (Time.to_ms fast.Timing.seal_base < Time.to_ms p.Timing.seal_base /. 9.)

let test_ideal_profile_fast () =
  let _, tpm = fresh ~vendor:Vendor.Ideal () in
  let t = op_time tpm (fun () ->
      ignore (Tpm.seal tpm ~caller:(Tpm.Cpu 0) ~pcr_policy:[] "x")) in
  checkb "ideal TPM sub-ms" true (t < 1.

)

(* --- Reboot --- *)

let test_reboot_semantics () =
  let _, tpm = fresh ~sepcr_count:2 () in
  ignore (Tpm.hash_start tpm ~caller:(Tpm.Cpu 0));
  ignore (Tpm.hash_data tpm "x");
  let h = Result.get_ok (Tpm.sepcr_allocate tpm ~caller:(Tpm.Cpu 0)) in
  ignore h;
  Tpm.reboot tpm;
  checks "dynamic PCRs back to -1" ones20 (Tpm.pcr_read tpm 17);
  checkb "hash session dropped" true (Tpm.hash_data tpm "x" = Error "no open hash session");
  (match Tpm.sepcr_bank tpm with
  | Some bank -> checki "sePCRs all free after reboot" 2 (Sepcr.free_count bank)
  | None -> Alcotest.fail "expected sePCR bank")

(* --- sePCR bank --- *)

let test_sepcr_allocation_exhaustion () =
  let _, tpm = fresh ~sepcr_count:2 () in
  let caller = Tpm.Cpu 0 in
  let h1 = Result.get_ok (Tpm.sepcr_allocate tpm ~caller) in
  let h2 = Result.get_ok (Tpm.sepcr_allocate tpm ~caller) in
  checkb "distinct handles" true (h1 <> h2);
  checkb "exhausted" true (Tpm.sepcr_allocate tpm ~caller = Error "no free sePCR");
  checkb "software cannot allocate" true
    (match Tpm.sepcr_allocate tpm ~caller:Tpm.Software with Error _ -> true | Ok _ -> false)

let test_sepcr_binding_enforced () =
  let _, tpm = fresh ~sepcr_count:2 () in
  let h = Result.get_ok (Tpm.sepcr_allocate tpm ~caller:(Tpm.Cpu 0)) in
  checkb "owner extends" true
    (match Tpm.sepcr_extend tpm ~caller:(Tpm.Cpu 0) h "m" with Ok _ -> true | Error _ -> false);
  checkb "other CPU blocked" true
    (Tpm.sepcr_extend tpm ~caller:(Tpm.Cpu 1) h "m" = Error "sePCR bound to a different CPU");
  checkb "software blocked" true
    (match Tpm.sepcr_extend tpm ~caller:Tpm.Software h "m" with Error _ -> true | Ok _ -> false);
  checkb "owner reads" true
    (match Tpm.sepcr_read tpm ~caller:(Tpm.Cpu 0) h with Ok _ -> true | Error _ -> false)

let test_sepcr_measure_chain () =
  let _, tpm = fresh ~sepcr_count:1 () in
  let caller = Tpm.Cpu 0 in
  let h = Result.get_ok (Tpm.sepcr_allocate tpm ~caller) in
  let code = "some PAL code" in
  let v = Result.get_ok (Tpm.sepcr_measure tpm ~caller h ~code) in
  checks "measure = extend(0, H(code))" (Sha1.digest (zero20 ^ Sha1.digest code)) v

let test_sepcr_quote_state_machine () =
  let _, tpm = fresh ~sepcr_count:1 () in
  let caller = Tpm.Cpu 0 in
  let h = Result.get_ok (Tpm.sepcr_allocate tpm ~caller) in
  ignore (Tpm.sepcr_measure tpm ~caller h ~code:"code");
  (* While Exclusive, software cannot quote it. *)
  checkb "software quote in Exclusive blocked" true
    (Tpm.quote tpm ~caller:Tpm.Software ~sepcr:h ~selection:[] ~nonce:"n" ()
    = Error "sePCR bound to an executing PAL");
  ignore (Tpm.sepcr_release_for_quote tpm ~caller h);
  let q =
    Result.get_ok (Tpm.quote tpm ~caller:Tpm.Software ~sepcr:h ~selection:[] ~nonce:"n" ())
  in
  checkb "quote carries sePCR value" true (q.Tpm.sepcr_value <> None);
  checkb "verifies" true (Tpm.verify_quote ~aik:(Tpm.aik_public tpm) q);
  (* After the quote the sePCR is Free again. *)
  (match Tpm.sepcr_bank tpm with
  | Some bank -> checki "freed after quote" 1 (Sepcr.free_count bank)
  | None -> assert false);
  checkb "second quote fails (already free)" true
    (Tpm.quote tpm ~caller:Tpm.Software ~sepcr:h ~selection:[] ~nonce:"n" ()
    = Error "sePCR is free")

let test_sepcr_seal_binds_to_measurement () =
  (* Challenge 4 (§5.4.4): state sealed under one sePCR must unseal for
     the same PAL later even on a different sePCR/CPU. *)
  let _, tpm = fresh ~sepcr_count:2 () in
  let h1 = Result.get_ok (Tpm.sepcr_allocate tpm ~caller:(Tpm.Cpu 0)) in
  ignore (Tpm.sepcr_measure tpm ~caller:(Tpm.Cpu 0) h1 ~code:"PAL-A");
  let blob =
    Result.get_ok (Tpm.seal tpm ~caller:(Tpm.Cpu 0) ~sepcr:h1 ~pcr_policy:[] "state")
  in
  (* PAL exits; sePCR freed. *)
  ignore (Tpm.sepcr_release_for_quote tpm ~caller:(Tpm.Cpu 0) h1);
  ignore (Tpm.quote tpm ~caller:Tpm.Software ~sepcr:h1 ~selection:[] ~nonce:"n" ());
  (* Relaunch the same code on another CPU: same measurement chain. *)
  let h2 = Result.get_ok (Tpm.sepcr_allocate tpm ~caller:(Tpm.Cpu 1)) in
  ignore (Tpm.sepcr_measure tpm ~caller:(Tpm.Cpu 1) h2 ~code:"PAL-A");
  checkb "same PAL unseals on a different sePCR" true
    (Tpm.unseal tpm ~caller:(Tpm.Cpu 1) ~sepcr:h2 blob = Ok "state");
  (* A different PAL must not. *)
  ignore (Tpm.sepcr_release_for_quote tpm ~caller:(Tpm.Cpu 1) h2);
  ignore (Tpm.quote tpm ~caller:Tpm.Software ~sepcr:h2 ~selection:[] ~nonce:"n" ());
  let h3 = Result.get_ok (Tpm.sepcr_allocate tpm ~caller:(Tpm.Cpu 0)) in
  ignore (Tpm.sepcr_measure tpm ~caller:(Tpm.Cpu 0) h3 ~code:"PAL-B");
  checkb "different PAL blocked" true
    (Tpm.unseal tpm ~caller:(Tpm.Cpu 0) ~sepcr:h3 blob = Error "sePCR binding mismatch")

let test_sepcr_skill () =
  let _, tpm = fresh ~sepcr_count:1 () in
  let caller = Tpm.Cpu 0 in
  let h = Result.get_ok (Tpm.sepcr_allocate tpm ~caller) in
  ignore (Tpm.sepcr_measure tpm ~caller h ~code:"code");
  checkb "skill succeeds" true (Tpm.sepcr_skill tpm ~caller h = Ok ());
  (match Tpm.sepcr_bank tpm with
  | Some bank -> checki "freed by skill" 1 (Sepcr.free_count bank)
  | None -> assert false)

let test_sepcr_rebind () =
  let _, tpm = fresh ~sepcr_count:1 () in
  let h = Result.get_ok (Tpm.sepcr_allocate tpm ~caller:(Tpm.Cpu 0)) in
  checkb "owner rebinds to new CPU" true
    (Tpm.sepcr_rebind tpm ~caller:(Tpm.Cpu 0) h ~new_owner:1 = Ok ());
  checkb "new owner can extend" true
    (match Tpm.sepcr_extend tpm ~caller:(Tpm.Cpu 1) h "m" with Ok _ -> true | Error _ -> false);
  checkb "old owner locked out" true
    (match Tpm.sepcr_extend tpm ~caller:(Tpm.Cpu 0) h "m" with Error _ -> true | Ok _ -> false)

(* --- Lock --- *)

let test_lock_arbitration () =
  let _, tpm = fresh () in
  checkb "cpu0 acquires" true (Tpm.try_lock tpm ~cpu:0);
  checkb "cpu0 reentrant" true (Tpm.try_lock tpm ~cpu:0);
  checkb "cpu1 blocked" false (Tpm.try_lock tpm ~cpu:1);
  checki "contention counted" 1 (Tpm.lock_contentions tpm);
  Tpm.unlock tpm ~cpu:0;
  checkb "cpu1 acquires after release" true (Tpm.try_lock tpm ~cpu:1);
  Alcotest.check_raises "foreign unlock"
    (Invalid_argument "Tpm.unlock: lock not held by this CPU") (fun () ->
      Tpm.unlock tpm ~cpu:0)

let () =
  Alcotest.run "tpm"
    [
      ( "pcr",
        [
          Alcotest.test_case "reset semantics" `Quick test_pcr_reset_semantics;
          Alcotest.test_case "extend chain" `Quick test_pcr_extend_chain;
          Alcotest.test_case "long input hashed" `Quick test_pcr_extend_hashes_long_input;
          Alcotest.test_case "bounds" `Quick test_pcr_bounds;
          Alcotest.test_case "composite" `Quick test_pcr_composite;
          QCheck_alcotest.to_alcotest prop_pcr_commits_to_history;
        ] );
      ( "hash-sequence",
        [
          Alcotest.test_case "locality rules" `Quick test_hash_sequence_locality;
          Alcotest.test_case "resets dynamic PCRs" `Quick test_hash_start_resets_dynamic;
          Alcotest.test_case "chunking equivalence" `Quick test_hash_chunked_equals_whole;
        ] );
      ( "sealed-storage",
        [
          Alcotest.test_case "roundtrip" `Quick test_seal_unseal_roundtrip;
          Alcotest.test_case "policy mismatch" `Quick test_unseal_policy_mismatch;
          Alcotest.test_case "wrong TPM" `Quick test_unseal_wrong_tpm;
          Alcotest.test_case "corrupted blob" `Quick test_unseal_corrupted_blob;
          Alcotest.test_case "large payload" `Quick test_seal_large_payload;
          Alcotest.test_case "multi-PCR policy" `Quick test_seal_multi_pcr_policy;
        ] );
      ( "quote",
        [
          Alcotest.test_case "verifies" `Quick test_quote_verifies;
          Alcotest.test_case "tamper detection" `Quick test_quote_tamper_detected;
          Alcotest.test_case "AIK certificate" `Quick test_aik_certificate;
          Alcotest.test_case "AIK certificate known answers" `Quick
            test_aik_certificate_known_answers;
        ] );
      ("random", [ Alcotest.test_case "GetRandom" `Quick test_get_random ]);
      ( "timing",
        [
          Alcotest.test_case "Figure 3 anchors" `Quick test_figure3_anchors;
          Alcotest.test_case "vendor ranges (§5.7)" `Quick test_vendor_profiles_ordered;
          Alcotest.test_case "scaled profile" `Quick test_scaled_profile;
          Alcotest.test_case "ideal TPM" `Quick test_ideal_profile_fast;
        ] );
      ("reboot", [ Alcotest.test_case "reset semantics" `Quick test_reboot_semantics ]);
      ( "sepcr",
        [
          Alcotest.test_case "allocation and exhaustion" `Quick test_sepcr_allocation_exhaustion;
          Alcotest.test_case "CPU binding enforced" `Quick test_sepcr_binding_enforced;
          Alcotest.test_case "measurement chain" `Quick test_sepcr_measure_chain;
          Alcotest.test_case "quote state machine" `Quick test_sepcr_quote_state_machine;
          Alcotest.test_case "seal binds to measurement (challenge 4)" `Quick
            test_sepcr_seal_binds_to_measurement;
          Alcotest.test_case "skill" `Quick test_sepcr_skill;
          Alcotest.test_case "rebind across CPUs" `Quick test_sepcr_rebind;
        ] );
      ("lock", [ Alcotest.test_case "multi-CPU arbitration" `Quick test_lock_arbitration ]);
    ]
