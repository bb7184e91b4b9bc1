(* Kernel rootkit detection with remote attestation (§4.1): the detector
   PAL measures the kernel from inside the isolated environment; its
   verdict is folded into the measurement chain, so a remote verifier can
   distinguish a genuine "clean" report from anything a compromised
   kernel could fabricate.

   Run with: dune exec examples/rootkit_scan.exe *)

open Sea_hw
open Sea_core
open Sea_apps

let scan_and_attest machine ~whitelist ~kernel_image ~nonce =
  match Rootkit_detector.check machine ~cpu:0 ~whitelist ~kernel_image with
  | Error e -> Error e
  | Ok clean -> (
      match Session.quote machine ~nonce with
      | Error e -> Error e
      | Ok (quote, _) -> Ok (clean, Attestation.gather machine quote))

(* The verifier recomputes the full PCR-17 chain it expects from a clean
   run: detector identity, then the clean-verdict extension, then the
   session exit marker. *)
let expected_clean_chain ~image =
  let pal = Rootkit_detector.pal () in
  let verdict_ext =
    Sea_crypto.Sha1.digest ("verdict:clean" ^ Sea_crypto.Sha256.digest image)
  in
  Sea_crypto.Sha1.digest
    (Sea_crypto.Sha1.digest (Pal.identity pal ^ verdict_ext)
    ^ Session.exit_marker)

let () =
  let image = Rootkit_detector.make_kernel_image ~seed:"vmlinuz-2.6.20-16" () in
  let whitelist = Rootkit_detector.whitelist_digest image in
  let nonce = "attest-me-7421" in

  let run label kernel_image =
    let machine = Machine.create Machine.hp_dc5750 in
    Printf.printf "-- %s --\n" label;
    match scan_and_attest machine ~whitelist ~kernel_image ~nonce with
    | Error e -> Printf.printf "  scan failed: %s\n" e
    | Ok (clean, evidence) ->
        Printf.printf "  detector verdict: %s\n" (if clean then "clean" else "COMPROMISED");
        let expected = expected_clean_chain ~image in
        (match
           Attestation.verify
             ~ca:(Sea_tpm.Tpm.privacy_ca_public ())
             ~nonce
             (Attestation.Dynamic_pcrs [ (17, expected) ])
             evidence
         with
        | Ok () -> Printf.printf "  remote verifier: platform attests CLEAN — trusted.\n\n"
        | Error e -> Printf.printf "  remote verifier: NOT trusted (%s).\n\n" e)
  in

  run "Healthy machine" image;
  run "Machine with a 1-byte kernel patch at offset 0x1000"
    (Rootkit_detector.infect image ~at:0x1000);

  (* A compromised kernel cannot skip the detector and lie: without a real
     late launch of the real detector, PCR 17 never contains the expected
     chain, because software cannot reset PCR 17 (§2.1.3). *)
  let machine = Machine.create Machine.hp_dc5750 in
  let tpm = Machine.tpm_exn machine in
  Printf.printf "-- Compromised kernel fabricates a report without running the PAL --\n";
  (match Sea_tpm.Tpm.hash_start tpm ~caller:Sea_tpm.Tpm.Software with
  | Error e -> Printf.printf "  attempt to reset PCR 17 from ring 0: %s\n" e
  | Ok () -> Printf.printf "  SECURITY FAILURE: software reset PCR 17\n");
  match Session.quote machine ~nonce with
  | Error e -> Printf.printf "  quote failed: %s\n" e
  | Ok (quote, _) ->
      let expected = expected_clean_chain ~image in
      (match
         Attestation.verify
           ~ca:(Sea_tpm.Tpm.privacy_ca_public ())
           ~nonce
           (Attestation.Dynamic_pcrs [ (17, expected) ])
           (Attestation.gather machine quote)
       with
      | Ok () -> Printf.printf "  SECURITY FAILURE: fabricated report accepted\n"
      | Error e -> Printf.printf "  remote verifier rejects the fabrication: %s\n" e)
