open Sea_crypto

type evidence = {
  quote : Sea_tpm.Tpm.quote;
  aik : Rsa.public;
  aik_cert : string;
}

let gather (m : Sea_hw.Machine.t) quote =
  let tpm = Sea_hw.Machine.tpm_exn m in
  {
    quote;
    aik = Sea_tpm.Tpm.aik_public tpm;
    aik_cert = Sea_tpm.Tpm.aik_certificate tpm;
  }

type expectation = Dynamic_pcrs of (int * string) list | Sepcr of string

let expect_session_exit m pal =
  let pcr = Session.identity_pcr_for m in
  Dynamic_pcrs [ (pcr, Session.expected_identity_after_exit pal) ]

let expect_slaunch_exit pal = Sepcr (Pal.identity pal)

let verify ~ca ~nonce expectation evidence =
  if not (Sea_tpm.Tpm.verify_aik_certificate ~ca ~aik:evidence.aik evidence.aik_cert)
  then Error "AIK certificate does not chain to the Privacy CA"
  else if not (Sea_tpm.Tpm.verify_quote ~aik:evidence.aik evidence.quote) then
    Error "quote signature invalid"
  else if not (String.equal evidence.quote.Sea_tpm.Tpm.nonce nonce) then
    Error "stale or replayed quote (nonce mismatch)"
  else begin
    match expectation with
    | Dynamic_pcrs expected ->
        let quoted = evidence.quote.Sea_tpm.Tpm.selection in
        let check (idx, value) =
          match List.assoc_opt idx quoted with
          | None -> Some (Printf.sprintf "PCR %d missing from quote" idx)
          | Some v when String.equal v value -> None
          | Some _ -> Some (Printf.sprintf "PCR %d does not match expected code" idx)
        in
        (match List.filter_map check expected with
        | [] -> Ok ()
        | e :: _ -> Error e)
    | Sepcr expected -> (
        match evidence.quote.Sea_tpm.Tpm.sepcr_value with
        | None -> Error "quote carries no sePCR value"
        | Some v when String.equal v expected -> Ok ()
        | Some _ -> Error "sePCR does not match expected PAL measurement")
  end
