open Sea_sim
open Sea_crypto

type caller = Cpu of int | Software

type t = {
  vendor : Vendor.t;
  profile : Timing.profile;
  engine : Engine.t;
  lpc : Sea_bus.Lpc.t;
  pcrs : Pcr.bank;
  sepcrs : Sepcr.bank option;
  srk : Rsa.private_key;
  aik : Rsa.private_key;
  drbg : Drbg.t;
  rng : Rng.t; (* timing jitter only *)
  mutable faults : Sea_fault.Fault.t option;
  mutable hash_session : Sha1.ctx option;
  mutable locked_by : int option;
  mutable lock_contentions : int;
  counters : (int, int) Hashtbl.t;
  mutable next_counter : int;
  nv : (int, string * string) Hashtbl.t; (* index -> (auth secret, data) *)
  instance_tag : string; (* distinguishes blobs across TPM instances *)
}

let privacy_ca () = Keyvault.get ~label:"privacy-ca" ~bits:2048
let privacy_ca_public () = (privacy_ca ()).Rsa.pub

(* A certificate is a deterministic PKCS#1 v1.5 signature over the AIK's
   public key, so it is signed once per key and process, when a verifier
   first asks for it. As in [Keyvault], a lock keeps the table consistent
   when TPMs are used from several domains, and a racing double sign
   yields the identical bytes. *)
let aik_certs : (string, string) Hashtbl.t = Hashtbl.create 7
let aik_certs_lock = Mutex.create ()

let aik_cert_message (aik : Rsa.public) =
  let enc = Wire.encoder () in
  Wire.add_string enc (Bignum.to_bytes_be aik.Rsa.n);
  Wire.add_string enc (Bignum.to_bytes_be aik.Rsa.e);
  "AIK-CERT" ^ Wire.contents enc

let certify_aik aik_pub =
  let msg = aik_cert_message aik_pub in
  match Mutex.protect aik_certs_lock (fun () -> Hashtbl.find_opt aik_certs msg) with
  | Some cert -> cert
  | None ->
      let cert = Rsa.sign (privacy_ca ()) msg in
      Mutex.protect aik_certs_lock (fun () -> Hashtbl.replace aik_certs msg cert);
      cert

let verify_aik_certificate ~ca ~aik cert =
  Rsa.verify ca ~msg:(aik_cert_message aik) ~signature:cert

(* Atomic so TPMs may be created from any domain; the tag only
   disambiguates blobs across instances, nothing rendered depends on
   its numeric value. *)
let instance_counter = Atomic.make 0

let create ?(vendor = Vendor.Broadcom) ?profile ?(key_bits = 2048) ?(sepcr_count = 0)
    engine =
  let profile = match profile with Some p -> p | None -> Timing.profile vendor in
  let instance = Atomic.fetch_and_add instance_counter 1 + 1 in
  let tag = Printf.sprintf "%s#%d" (Vendor.name vendor) instance in
  let srk = Keyvault.get ~label:("srk:" ^ Vendor.name vendor) ~bits:key_bits in
  let aik = Keyvault.get ~label:("aik:" ^ Vendor.name vendor) ~bits:key_bits in
  {
    vendor;
    profile;
    engine;
    lpc = Sea_bus.Lpc.create engine;
    pcrs = Pcr.create ();
    sepcrs = (if sepcr_count > 0 then Some (Sepcr.create ~size:sepcr_count) else None);
    srk;
    aik;
    drbg = Drbg.create ~seed:("tpm-drbg:" ^ tag);
    (* Jitter derives from the engine's deterministic stream so that two
       identically configured machines replay identical timelines. *)
    rng = Rng.split (Engine.rng engine);
    faults = None;
    hash_session = None;
    locked_by = None;
    lock_contentions = 0;
    counters = Hashtbl.create 4;
    next_counter = 0;
    nv = Hashtbl.create 4;
    instance_tag = tag;
  }

let vendor t = t.vendor
let tag t = t.instance_tag
let profile t = t.profile
let engine t = t.engine
let lpc t = t.lpc
let aik_public t = t.aik.Rsa.pub
let aik_certificate t = certify_aik t.aik.Rsa.pub

let charge t mean = Engine.advance t.engine (Timing.draw t.rng t.profile mean)

(* Every TPM command entry point runs inside one of these spans, so a
   trace sink sees per-command latency histograms keyed "tpm"/<command>
   for free; with no sink installed this is the [f ()] identity. *)
let traced t name f = Sea_trace.Trace.with_span t.engine ~cat:"tpm" name f

let set_faults t plan =
  t.faults <- plan;
  Sea_bus.Lpc.set_faults t.lpc plan

let faults t = t.faults

(* A fired fault yields a transient error; the injection sites below are
   placed before any state mutation, so a retried command observes the
   TPM exactly as if the failed attempt never ran (a busy part burns the
   command's latency but commits nothing). *)
let inject t kind msg =
  match t.faults with
  | Some plan when Sea_fault.Fault.fires plan kind ->
      Sea_trace.Trace.instant t.engine ~cat:"fault"
        ~args:(fun () -> [ ("msg", Sea_trace.Trace.Str msg) ])
        (Sea_fault.Fault.kind_name kind);
      Some (Sea_fault.Fault.transient msg)
  | _ -> None

let reboot t =
  Pcr.reboot t.pcrs;
  t.hash_session <- None;
  t.locked_by <- None;
  (match t.sepcrs with
  | None -> ()
  | Some bank ->
      for i = 0 to Sepcr.size bank - 1 do
        (* Power loss clears all bindings; ignore per-slot state errors. *)
        match Sepcr.handle_of_int bank i with
        | None -> ()
        | Some h -> (
            match Sepcr.state bank h with
            | Sepcr.Free -> ()
            | Sepcr.Exclusive -> ignore (Sepcr.skill bank h)
            | Sepcr.Quote -> ignore (Sepcr.finish_quote bank h))
      done);
  charge t (Time.ms 1.)

(* --- Lock (§5.4.5) --- *)

let try_lock t ~cpu =
  match t.locked_by with
  | None ->
      t.locked_by <- Some cpu;
      true
  | Some holder when holder = cpu -> true
  | Some _ ->
      t.lock_contentions <- t.lock_contentions + 1;
      false

let unlock t ~cpu =
  match t.locked_by with
  | Some holder when holder = cpu -> t.locked_by <- None
  | _ -> invalid_arg "Tpm.unlock: lock not held by this CPU"

let lock_contentions t = t.lock_contentions

(* --- PCR commands --- *)

let pcr_read t i =
  traced t "pcr-read" (fun () ->
      charge t t.profile.Timing.pcr_read;
      Pcr.read t.pcrs i)

let pcr_extend t i m =
  traced t "pcr-extend" (fun () ->
      charge t t.profile.Timing.pcr_extend;
      Pcr.extend t.pcrs i m)

let pcr_extend_deferred t i m =
  (* The pipelined path: commit the extend now, hand its hardware cost
     back for the caller to account on the device's own timeline. No
     jitter draw — a background timeline must not perturb the stream the
     foreground commands draw their jitter from. *)
  let v = Pcr.extend t.pcrs i m in
  (v, t.profile.Timing.pcr_extend)

(* --- TPM_HASH_* sequence --- *)

let hash_start t ~caller =
  match caller with
  | Software -> Error "TPM_HASH_START is a hardware-only command"
  | Cpu _ ->
      traced t "hash-start" (fun () ->
          match inject t Tpm_busy "TPM_HASH_START busy" with
          | Some e ->
              charge t t.profile.Timing.hash_start;
              Error e
          | None ->
              charge t t.profile.Timing.hash_start;
              Pcr.dynamic_reset t.pcrs;
              t.hash_session <- Some (Sha1.init ());
              Ok ())

let hash_data t chunk =
  match t.hash_session with
  | None -> Error "no open hash session"
  | Some ctx ->
      traced t "hash-data" (fun () ->
          match inject t Hash_abort "TPM_HASH_DATA aborted mid-sequence" with
          | Some e ->
              (* The sequence dies partway through the transfer: the bus time
                 for the bytes already sent is spent, and the open hash
                 session is lost — a retry must restart from TPM_HASH_START. *)
              Sea_bus.Lpc.transfer t.lpc
                ~device_wait:t.profile.Timing.hash_data_wait
                ~bytes:(String.length chunk / 2);
              t.hash_session <- None;
              Error e
          | None ->
              (* The bytes cross the LPC bus with the vendor's long-wait stall. *)
              Sea_bus.Lpc.transfer t.lpc
                ~device_wait:t.profile.Timing.hash_data_wait
                ~bytes:(String.length chunk);
              Sha1.update ctx chunk;
              Ok ())

let hash_end t =
  match t.hash_session with
  | None -> Error "no open hash session"
  | Some ctx ->
      traced t "hash-end" (fun () ->
          match inject t Tpm_busy "TPM_HASH_END busy" with
          | Some e ->
              (* Busy response: the session survives, the command can retry. *)
              charge t t.profile.Timing.hash_end;
              Error e
          | None ->
              charge t t.profile.Timing.hash_end;
              t.hash_session <- None;
              let digest = Sha1.finalize ctx in
              Ok (Pcr.extend t.pcrs 17 digest))

(* --- Randomness --- *)

let get_random t n =
  traced t "get-random" (fun () ->
      Engine.advance t.engine
        (Timing.draw t.rng t.profile (Timing.get_random_time t.profile ~bytes:n));
      Drbg.generate_string t.drbg n)

(* --- Monotonic counters --- *)

let max_counters = 16

let counter_create t =
  if t.next_counter >= max_counters then Error "no free monotonic counter"
  else begin
    charge t t.profile.Timing.pcr_extend;
    let id = t.next_counter in
    t.next_counter <- id + 1;
    Hashtbl.replace t.counters id 0;
    Ok id
  end

let counter_read t id =
  charge t t.profile.Timing.pcr_read;
  match Hashtbl.find_opt t.counters id with
  | Some v -> Ok v
  | None -> Error "unknown counter"

let counter_increment t id =
  charge t t.profile.Timing.pcr_extend;
  match Hashtbl.find_opt t.counters id with
  | Some v ->
      let v = v + 1 in
      Hashtbl.replace t.counters id v;
      Ok v
  | None -> Error "unknown counter"

(* --- Authorization sessions and NVRAM --- *)

let nv_max_size = 4096

let oiap_open t =
  charge t (Time.ms 1.);
  Auth.create ~nonce_even:(Drbg.generate_string t.drbg 20)

let nv_define t ~index ~size ~auth_secret =
  charge t t.profile.Timing.pcr_extend;
  if size <= 0 || size > nv_max_size then Error "invalid NV size"
  else if Hashtbl.mem t.nv index then Error "NV index already defined"
  else begin
    Hashtbl.replace t.nv index (auth_secret, String.make size '\000');
    Ok ()
  end

let nv_write_command ~index ~data =
  let enc = Wire.encoder () in
  Wire.add_string enc "TPM_NV_WRITE";
  Wire.add_int enc index;
  Wire.add_string enc data;
  Wire.contents enc

let nv_write t ~session ~index ~data ~nonce_odd ~auth =
  traced t "nv-write" @@ fun () ->
  charge t t.profile.Timing.pcr_extend;
  match inject t Nv_fail "TPM_NV_WRITE failed" with
  | Some e -> Error e
  | None -> (
  match Hashtbl.find_opt t.nv index with
  | None -> Error "NV index not defined"
  | Some (secret, existing) ->
      if String.length data > String.length existing then Error "data exceeds NV size"
      else if
        not
          (Auth.tpm_verify session ~secret
             ~command:(nv_write_command ~index ~data)
             ~nonce_odd ~auth)
      then Error "authorization failed"
      else begin
        let padded =
          data ^ String.make (String.length existing - String.length data) '\000'
        in
        Hashtbl.replace t.nv index (secret, padded);
        Ok ()
      end)

let nv_read t ~index =
  traced t "nv-read" @@ fun () ->
  charge t t.profile.Timing.pcr_read;
  match Hashtbl.find_opt t.nv index with
  | None -> Error "NV index not defined"
  | Some (_, data) -> Ok data

(* --- Sealed storage --- *)

let blob_magic = "SEALv1"

let sepcr_access t ~caller h =
  match (t.sepcrs, caller) with
  | None, _ -> Error "this TPM has no sePCR bank"
  | Some _, Software -> Error "sePCR access requires the hardware path"
  | Some bank, Cpu cpu -> (
      match Sepcr.read bank h ~owner:cpu with
      | Ok v -> Ok (bank, v)
      | Error e -> Error e)

let max_seal_payload _t = 64 * 1024

let seal t ~caller ?sepcr ~pcr_policy payload =
  traced t "seal" @@ fun () ->
  if String.length payload > max_seal_payload t then Error "payload too large"
  else begin
    let sepcr_binding =
      match sepcr with
      | None -> Ok None
      | Some h -> (
          match sepcr_access t ~caller h with
          | Ok (_, v) -> Ok (Some v)
          | Error e -> Error e)
    in
    match sepcr_binding with
    | Error e -> Error e
    | Ok binding -> (
      match inject t Seal_fail "TPM_Seal blob write failed" with
      | Some e ->
          charge t
            (Timing.seal_time t.profile ~payload_bytes:(String.length payload));
          Error e
      | None ->
        charge t
          (Timing.seal_time t.profile ~payload_bytes:(String.length payload));
        (* Serialize policy + payload, hybrid-encrypt under the SRK. *)
        let enc = Wire.encoder () in
        Wire.add_string enc blob_magic;
        Wire.add_list enc
          (fun (i, v) ->
            Wire.add_int enc i;
            Wire.add_string enc v)
          pcr_policy;
        Wire.add_string enc (match binding with None -> "" | Some v -> v);
        Wire.add_string enc payload;
        let plaintext = Wire.contents enc in
        let sym_key = Drbg.generate_string t.drbg Aead.key_size in
        let nonce = Drbg.generate_string t.drbg Aead.nonce_size in
        let wrapped = Rsa.encrypt t.srk.Rsa.pub t.drbg sym_key in
        let body = Aead.encrypt ~key:sym_key ~nonce plaintext in
        let out = Wire.encoder () in
        Wire.add_string out wrapped;
        Wire.add_string out nonce;
        Wire.add_string out body;
        Ok (Wire.contents out))
  end

let unseal t ~caller ?sepcr blob =
  traced t "unseal" @@ fun () ->
  let sepcr_value =
    match sepcr with
    | None -> Ok None
    | Some h -> (
        match sepcr_access t ~caller h with
        | Ok (_, v) -> Ok (Some v)
        | Error e -> Error e)
  in
  match sepcr_value with
  | Error e -> Error e
  | Ok current_sepcr -> (
      charge t (Timing.unseal_time t.profile ~payload_bytes:(String.length blob));
      match inject t Tpm_busy "TPM_Unseal busy" with
      | Some e -> Error e
      | None -> (
      let d = Wire.decoder blob in
      match (Wire.read_string d, Wire.read_string d, Wire.read_string d) with
      | Some wrapped, Some nonce, Some body -> (
          match Rsa.decrypt t.srk wrapped with
          | None -> Error "not sealed by this TPM"
          | Some sym_key when String.length sym_key <> Aead.key_size ->
              Error "corrupted blob"
          | Some sym_key -> (
              match Aead.decrypt ~key:sym_key ~nonce body with
              | None -> Error "blob integrity check failed"
              | Some plaintext -> (
                  let d = Wire.decoder plaintext in
                  match Wire.read_string d with
                  | Some magic when magic = blob_magic -> (
                      let policy =
                        Wire.read_list d (fun () ->
                            match (Wire.read_int d, Wire.read_string d) with
                            | Some i, Some v -> Some (i, v)
                            | _ -> None)
                      in
                      match (policy, Wire.read_string d, Wire.read_string d) with
                      | Some policy, Some bound_sepcr, Some payload ->
                          let pcr_ok =
                            List.for_all
                              (fun (i, v) ->
                                i >= 0 && i < Pcr.count && Pcr.read t.pcrs i = v)
                              policy
                          in
                          let sepcr_ok =
                            match (bound_sepcr, current_sepcr) with
                            | "", _ -> true
                            | required, Some current -> String.equal required current
                            | _, None -> false
                          in
                          if not pcr_ok then Error "PCR policy mismatch"
                          else if not sepcr_ok then Error "sePCR binding mismatch"
                          else Ok payload
                      | _ -> Error "corrupted blob")
                  | _ -> Error "corrupted blob")))
      | _ -> Error "corrupted blob"))

(* --- Attestation --- *)

type quote = {
  selection : (int * string) list;
  sepcr_value : string option;
  nonce : string;
  signature : string;
}

let quote_message ~selection ~sepcr_value ~nonce =
  let enc = Wire.encoder () in
  Wire.add_string enc "TPM_QUOTE";
  Wire.add_string enc (Pcr.composite_of_values selection);
  Wire.add_string enc (match sepcr_value with None -> "" | Some v -> v);
  Wire.add_string enc nonce;
  Wire.contents enc

let quote t ~caller ?sepcr ~selection ~nonce () =
  traced t "quote" @@ fun () ->
  match inject t Tpm_busy "TPM_Quote busy" with
  | Some e ->
      charge t t.profile.Timing.quote;
      Error e
  | None ->
  let sepcr_value =
    match (sepcr, t.sepcrs) with
    | None, _ -> Ok None
    | Some _, None -> Error "this TPM has no sePCR bank"
    | Some h, Some bank -> (
        (* Quote of a sePCR is the one operation untrusted code performs:
           permitted only in the Quote state (§5.4.3). The hardware path may
           quote its own Exclusive sePCR (e.g. for interactive protocols). *)
        match (Sepcr.state bank h, caller) with
        | Sepcr.Quote, _ ->
            let v = Sepcr.value_unchecked bank h in
            (match Sepcr.finish_quote bank h with
            | Ok () -> Ok (Some v)
            | Error e -> Error e)
        | Sepcr.Exclusive, Cpu cpu -> (
            match Sepcr.read bank h ~owner:cpu with
            | Ok v -> Ok (Some v)
            | Error e -> Error e)
        | Sepcr.Exclusive, Software -> Error "sePCR bound to an executing PAL"
        | Sepcr.Free, _ -> Error "sePCR is free")
  in
  match sepcr_value with
  | Error e -> Error e
  | Ok sepcr_value ->
      charge t t.profile.Timing.quote;
      let selection = List.map (fun i -> (i, Pcr.read t.pcrs i)) selection in
      let msg = quote_message ~selection ~sepcr_value ~nonce in
      let signature = Rsa.sign t.aik msg in
      Ok { selection; sepcr_value; nonce; signature }

let verify_quote ~aik q =
  match quote_message ~selection:q.selection ~sepcr_value:q.sepcr_value ~nonce:q.nonce with
  | msg -> Rsa.verify aik ~msg ~signature:q.signature
  | exception Invalid_argument _ -> false

(* --- sePCR bank --- *)

let sepcr_bank t = t.sepcrs

let require_hardware caller =
  match caller with Cpu cpu -> Ok cpu | Software -> Error "hardware path required"

let measurement_absorption_cost _t =
  (* SLAUNCH sends the PAL to the TPM like SKINIT does; callers charge the
     LPC traffic separately via hash_data. Allocation itself is cheap. *)
  Time.us 5.

let sepcr_allocate t ~caller =
  traced t "sepcr-allocate" @@ fun () ->
  match (t.sepcrs, require_hardware caller) with
  | None, _ -> Error "this TPM has no sePCR bank"
  | _, Error e -> Error e
  | Some bank, Ok cpu -> (
      Engine.advance t.engine (measurement_absorption_cost t);
      match Sepcr.allocate bank ~owner:cpu with
      | Some h -> Ok h
      | None -> Error "no free sePCR")

let sepcr_allocate_set t ~caller ~size =
  traced t "sepcr-allocate-set" @@ fun () ->
  if size <= 0 then Error "set size must be positive"
  else begin
    match (t.sepcrs, require_hardware caller) with
    | None, _ -> Error "this TPM has no sePCR bank"
    | _, Error e -> Error e
    | Some bank, Ok cpu ->
        Engine.advance t.engine (measurement_absorption_cost t);
        let rec take acc n =
          if n = 0 then Ok (List.rev acc)
          else
            match Sepcr.allocate bank ~owner:cpu with
            | Some h -> take (h :: acc) (n - 1)
            | None ->
                (* Atomic: roll back the partial allocation (§6). *)
                List.iter (fun h -> ignore (Sepcr.skill bank h)) acc;
                Error "not enough free sePCRs for the set"
        in
        take [] size
  end

let with_bank_cpu t ~caller f =
  match (t.sepcrs, require_hardware caller) with
  | None, _ -> Error "this TPM has no sePCR bank"
  | _, Error e -> Error e
  | Some bank, Ok cpu -> f bank cpu

let sepcr_extend t ~caller h m =
  traced t "sepcr-extend" @@ fun () ->
  with_bank_cpu t ~caller (fun bank cpu ->
      charge t (Time.us 5.);
      match inject t Tpm_busy "sePCR_Extend busy" with
      | Some e -> Error e
      | None -> Sepcr.extend bank h ~owner:cpu m)

let sepcr_measure t ~caller h ~code =
  traced t "sepcr-measure" @@ fun () ->
  with_bank_cpu t ~caller (fun bank cpu ->
      match inject t Hash_abort "SLAUNCH measurement aborted mid-sequence" with
      | Some e ->
          (* Abort partway through streaming the PAL to the TPM: the bus
             time is spent, no extend is committed. *)
          Sea_bus.Lpc.transfer t.lpc
            ~device_wait:t.profile.Timing.hash_data_wait
            ~bytes:(String.length code / 2);
          Error e
      | None ->
          Sea_bus.Lpc.transfer t.lpc
            ~device_wait:t.profile.Timing.hash_data_wait
            ~bytes:(String.length code);
          charge t t.profile.Timing.hash_end;
          Sepcr.extend bank h ~owner:cpu (Sha1.digest code))

let sepcr_read t ~caller h =
  traced t "sepcr-read" @@ fun () ->
  with_bank_cpu t ~caller (fun bank cpu ->
      charge t (Time.us 2.);
      Sepcr.read bank h ~owner:cpu)

let sepcr_rebind t ~caller h ~new_owner =
  traced t "sepcr-rebind" @@ fun () ->
  with_bank_cpu t ~caller (fun bank cpu ->
      (* The memory controller caches sePCR handles during SLAUNCH
         (§5.4.1), so re-binding on resume is a register check, not an LPC
         round-trip. *)
      charge t (Time.ns 50);
      match inject t Tpm_busy "sePCR_Rebind busy" with
      | Some e -> Error e
      | None -> Sepcr.rebind bank h ~owner:cpu ~new_owner)

let sepcr_release_for_quote t ~caller h =
  traced t "sepcr-release" @@ fun () ->
  with_bank_cpu t ~caller (fun bank cpu ->
      charge t (Time.us 2.);
      Sepcr.release_for_quote bank h ~owner:cpu)

let sepcr_skill t ~caller h =
  traced t "sepcr-skill" @@ fun () ->
  with_bank_cpu t ~caller (fun bank _cpu ->
      charge t (Time.us 5.);
      Sepcr.skill bank h)
