(** Functional + timing model of a v1.2 TPM, with the paper's proposed
    sePCR extension.

    Every command both {e does} the operation (real SHA-1 PCR arithmetic,
    real RSA seal/quote over the [Sea_crypto] substrate) and {e costs} the
    simulated latency of the modelled vendor part (§4.3.3, Figure 3),
    advancing the simulation clock. Measurement code therefore reads
    latencies off the engine clock while correctness code checks actual
    digests, blobs and signatures.

    Trust boundary conventions: commands take a {!caller}. [Cpu n] means
    the command was issued by CPU hardware (the SKINIT/SLAUNCH microcode)
    or by the PAL currently executing on CPU [n]; [Software] means ordinary
    untrusted ring-0 code. Only the hardware path can reset dynamic PCRs or
    touch a PAL's sePCR — matching §2.1.3 and §5.4.2. *)

type t

type caller = Cpu of int | Software

val create :
  ?vendor:Vendor.t ->
  ?profile:Timing.profile ->
  ?key_bits:int ->
  ?sepcr_count:int ->
  Sea_sim.Engine.t ->
  t
(** A TPM on the given engine's clock. [vendor] selects the timing profile
    (default [Broadcom], the paper's primary test machine); [profile]
    overrides it entirely (used by the faster-TPM ablation). [key_bits]
    sizes the SRK/AIK (default 2048, as in the paper; tests use smaller
    keys for speed). [sepcr_count] of [0] (default) models a real v1.2
    part; a positive count enables the proposed sePCR bank. *)

val vendor : t -> Vendor.t

val tag : t -> string
(** A process-unique instance tag ("<vendor>#<n>"); seeds per-instance
    deterministic streams (e.g. the vTPM layer's DRBGs). Nothing rendered
    may depend on its numeric part. *)

val profile : t -> Timing.profile
val engine : t -> Sea_sim.Engine.t

val lpc : t -> Sea_bus.Lpc.t
(** The LPC link this TPM sits on (created with the TPM). *)

val set_faults : t -> Sea_fault.Fault.t option -> unit
(** Install (or remove, with [None]) a deterministic fault plan on this
    TPM {e and} its LPC bus. With a plan installed, commands may fail
    with transient errors (tagged per [Sea_fault.Fault.is_transient]):
    busy responses on [TPM_HASH_START]/[TPM_HASH_END], unseal, quote and
    the sePCR commands; aborted [TPM_HASH_DATA]/SLAUNCH measurement
    sequences (the open session is lost, bus time already spent);
    seal-blob and NV write failures; and injected LPC long-wait stalls.
    Every injection site sits before the command's state mutation, so a
    retried command sees the TPM as if the failed attempt never ran.
    Without a plan (the default) behaviour is exactly fault-free. *)

val faults : t -> Sea_fault.Fault.t option
(** The currently installed fault plan, if any. *)

val reboot : t -> unit
(** Platform reset: PCR semantics per {!Pcr.reboot}; open hash sessions and
    the command lock are cleared. Keys and sePCR bindings survive (sePCRs
    are cleared to Free). *)

(** {1 Hardware arbitration (§5.4.5)} *)

val try_lock : t -> cpu:int -> bool
val unlock : t -> cpu:int -> unit
(** Raises [Invalid_argument] if [cpu] does not hold the lock. *)

val lock_contentions : t -> int
(** Number of failed {!try_lock} attempts, for the concurrency analysis. *)

(** {1 PCR commands} *)

val pcr_read : t -> int -> string
val pcr_extend : t -> int -> string -> string

val pcr_extend_deferred : t -> int -> string -> string * Sea_sim.Time.t
(** The pipelined/batched accounting path used by the vTPM anchor
    scheduler: commits the extend to PCR state immediately and returns
    [(new value, hardware cost)] {e without} advancing the engine clock
    or drawing timing jitter. The caller accounts the returned cost (plus
    the batch's coalesced LPC time, {!Sea_bus.Lpc.batch_transfer_time})
    on the device's own background timeline — once per batch, per byte
    actually moved, rather than per command framing. *)

(** {1 The TPM_HASH_START/DATA/END sequence}

    Issued by CPU microcode during SKINIT/SENTER: resets dynamic PCRs,
    absorbs the measured code a few bytes per LPC transaction (each
    transaction stalled by the vendor's long-wait time — the dominant
    SKINIT cost), and extends the result into PCR 17. *)

val hash_start : t -> caller:caller -> (unit, string) result
val hash_data : t -> string -> (unit, string) result
val hash_end : t -> (string, string) result
(** Returns the new PCR 17 value. *)

(** {1 Sealed storage} *)

val seal :
  t ->
  caller:caller ->
  ?sepcr:Sepcr.handle ->
  pcr_policy:(int * string) list ->
  string ->
  (string, string) result
(** [seal t ~caller ~pcr_policy payload] returns an opaque blob decryptable
    only by this TPM when the PCRs listed in [pcr_policy] hold the given
    values. With [?sepcr] (proposed hardware, §5.4.4), the blob is
    additionally bound to the {e current value} of that sePCR — i.e. to the
    PAL's measurement chain, not its register index — so a future
    instance of the same PAL unseals it regardless of which sePCR it is
    assigned. [?sepcr] requires [caller = Cpu n] matching the binding. *)

val unseal :
  t ->
  caller:caller ->
  ?sepcr:Sepcr.handle ->
  string ->
  (string, string) result
(** Policy-checked decryption; errors on wrong TPM, corrupted blob, or
    policy mismatch (with distinct messages). *)

val max_seal_payload : t -> int

(** {1 Attestation} *)

type quote = {
  selection : (int * string) list;  (** PCR index, value — as signed. *)
  sepcr_value : string option;  (** sePCR value when quoting a sePCR. *)
  nonce : string;
  signature : string;
}

val quote :
  t ->
  caller:caller ->
  ?sepcr:Sepcr.handle ->
  selection:int list ->
  nonce:string ->
  unit ->
  (quote, string) result
(** Sign the selected PCRs (and optionally one sePCR) with the AIK. A sePCR
    may be quoted by untrusted software only in the [Quote] state (after
    the PAL exited); the quote transitions it to [Free] (§5.4.3). *)

val verify_quote : aik:Sea_crypto.Rsa.public -> quote -> bool
(** Pure verifier-side signature check. The verifier must additionally
    judge whether the quoted values correspond to code it trusts. *)

val aik_public : t -> Sea_crypto.Rsa.public
val aik_certificate : t -> string
(** Privacy-CA signature over the AIK public key (§2.1.1). Signed on
    first use, once per AIK and process; it charges no virtual time. *)

val verify_aik_certificate :
  ca:Sea_crypto.Rsa.public -> aik:Sea_crypto.Rsa.public -> string -> bool

val privacy_ca_public : unit -> Sea_crypto.Rsa.public
(** The (simulated) Privacy CA all TPMs in this process are certified
    by. *)

(** {1 Miscellaneous commands} *)

val get_random : t -> int -> string

(** {1 Monotonic counters}

    TPM v1.2 monotonic counters: values only ever increase and survive
    reboots. The paper's sealed-storage design is replay-prone (a
    malicious OS can feed a PAL an {e old} sealed state); counters are
    the standard fix (later realized by systems like Memoir) and are
    used by {!Sea_core.Rollback}. *)

val counter_create : t -> (int, string) result
(** Allocate a new counter starting at 0; returns its id. A TPM holds at
    most {!max_counters}. *)

val counter_read : t -> int -> (int, string) result
val counter_increment : t -> int -> (int, string) result
(** Increment and return the new value. *)

val max_counters : int

(** {1 Authorization sessions and NVRAM}

    Auth-protected non-volatile storage: an NV index is defined with an
    authorization secret; writes must carry an OIAP-style proof
    ({!Auth}); reads are public. Contents survive reboots. *)

val oiap_open : t -> Auth.session
(** Open an authorization session (the TPM draws the initial rolling
    nonce). *)

val nv_define : t -> index:int -> size:int -> auth_secret:string -> (unit, string) result
(** Define an NV area. Fails if the index exists or [size] exceeds
    {!nv_max_size}. *)

val nv_write :
  t ->
  session:Auth.session ->
  index:int ->
  data:string ->
  nonce_odd:string ->
  auth:string ->
  (unit, string) result
(** Authorized write of the whole area ([data] must fit the defined
    size). [auth] must be {!Auth.client_authorize} over the canonical
    command encoding [nv_write_command ~index ~data]. *)

val nv_read : t -> index:int -> (string, string) result

val nv_write_command : index:int -> data:string -> string
(** The canonical command bytes both sides authorize over. *)

val nv_max_size : int

(** {1 sePCR bank (proposed hardware)} *)

val sepcr_bank : t -> Sepcr.bank option

val sepcr_allocate : t -> caller:caller -> (Sepcr.handle, string) result
(** Allocate-and-reset during SLAUNCH; hardware-path only. Also charges the
    measurement-absorption time (the SLAUNCH TPM traffic). *)

val sepcr_allocate_set :
  t -> caller:caller -> size:int -> (Sepcr.handle list, string) result
(** §6 "sePCR Sets": atomically bind [size] sePCRs to one PAL — all
    allocated and reset together, or none (the failure path rolls back
    any partial allocation). Each member is then driven through the
    ordinary per-handle commands. *)

val sepcr_extend :
  t -> caller:caller -> Sepcr.handle -> string -> (string, string) result

val sepcr_measure :
  t -> caller:caller -> Sepcr.handle -> code:string -> (string, string) result
(** The SLAUNCH measurement path (§5.4.1): the CPU streams the PAL's bytes
    to the TPM over the LPC bus (same per-transaction long-wait stall as
    TPM_HASH_DATA) and the TPM extends the PAL's sePCR with the SHA-1 of
    the code. Returns the new sePCR value. *)

val sepcr_read : t -> caller:caller -> Sepcr.handle -> (string, string) result
val sepcr_rebind :
  t -> caller:caller -> Sepcr.handle -> new_owner:int -> (unit, string) result

val sepcr_release_for_quote :
  t -> caller:caller -> Sepcr.handle -> (unit, string) result

val sepcr_skill : t -> caller:caller -> Sepcr.handle -> (unit, string) result
