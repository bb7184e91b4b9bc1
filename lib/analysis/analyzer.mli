(** The PAL bytecode static analyzer (the paper's §3.2 observation made
    executable: a PAL is small enough to verify {e before} it is
    measured and launched).

    Four rule families run over the {!Cfg} and the {!Dataflow} fixpoint:

    - {b decode/structure} — [decode/invalid] (undecodable bytes on a
      reachable path, with the decoder's own message), [decode/truncated]
      (reachable instruction cut by the image end), [cfg/jump-out-of-image],
      [cfg/jump-off-grid] (target off the 8-byte instruction grid),
      [cfg/fall-through-off-image] (warn: execution runs into
      zero-filled memory, an implicit halt).
    - {b self-modification / TOCTOU} — [selfmod/store-overwrites-code]
      ([Stb]/[Stw] whose target range may intersect reachable code),
      [selfmod/service-writes-code] (a service writes its result over
      code), and the footnote-3 pair:
      [toctou/input-overwrites-code] (error — [SVC INPUT_READ] can
      rewrite measured code, so the load-time attestation lies about
      what ran) vs [toctou/input-overwrites-code-mitigated] (warn — the
      same overlap, but an [SVC EXTEND] covered the input on every path
      first, so a verifier sees the malicious input in the chain).
    - {b secret flow} — [taint/unsealed-secret-to-output] (error:
      [UNSEAL] output may reach [OUTPUT] raw, without an intervening
      [SEAL]) and [taint/random-to-output] (warn: [RANDOM] bytes
      likewise).
    - {b resource bounds / policy} — [bounds/straight-line] (info: loop-free
      worst case vs the fuel), [bounds/loop-bound] (info: every back-edge
      carries a provable trip count, with the resulting worst case),
      [bounds/back-edge] (a loop {e without} a provable trip count —
      info, or error under [require_bounded]), [bounds/fuel-exceeded],
      [svc/unknown], [policy/service-forbidden] (service whitelist).
      The step numbers come from the {!Cost} pass, which folds the
      {!Sea_isa.Isa.fuel_cost} table and {!Loop_bounds} trip counts, so
      findings and {!Certificate}s always agree.

    Registers are tracked with an interval domain seeded from the
    zeroed machine state, so buffer addresses and lengths built with
    [Loadi]/[Mov]/arithmetic resolve to concrete ranges. *)

type gate =
  | Off  (** Skip analysis entirely (the default at launch). *)
  | WarnOnly  (** Analyze and report, but never refuse a launch. *)
  | Enforce  (** Refuse to launch an image whose report has errors. *)

type policy = {
  fuel : int;  (** Step budget to check bounds against. *)
  mem_size : int;  (** VM memory the image will run in. *)
  allowed_services : int list option;
      (** [Some l]: any reachable [SVC] outside [l] is an error.
          [None]: every service the VM implements is allowed. *)
  require_bounded : bool;
      (** Escalate loop back-edges from info to error — for PALs that
          must provably terminate within fuel. *)
}

val default_policy : policy
(** VM defaults: fuel {!Sea_isa.Isa.default_fuel}, 64 KB memory, all
    services, loops allowed. *)

val analyze : ?policy:policy -> string -> Report.t
(** Analyze a raw PAL image (the exact bytes that would be measured). *)

val certify : ?policy:policy -> string -> Report.t * Certificate.t
(** [analyze] plus the static cost certificate priced from the same
    CFG and dataflow fixpoint. Degenerate images (empty, oversized)
    get an unbounded fuel-ceiling certificate. *)

val check : ?policy:policy -> gate:gate -> string -> (unit, string) result
(** The launch gate: [Ok] under [Off]/[WarnOnly] or when the report is
    clean; [Error] (with a one-line summary of the first error) when
    [gate = Enforce] and the report has errors. *)
