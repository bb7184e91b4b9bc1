(** The serving loop: multi-tenant PAL request service, measured end to
    end on one simulated machine.

    This is the paper's §4.2 observation turned into a systems
    experiment. On {e today's} hardware ([Current]) every request is a
    full {!Sea_core.Session}: SKINIT measurement, TPM Unseal (and Seal
    for resealing kinds), and a whole-platform stall for the duration —
    one request at a time, hundreds of milliseconds each. On the
    {e proposed} hardware ([Proposed]) each (tenant, kind) keeps a
    resident PAL suspended in access-controlled memory
    ({!Sea_core.Slaunch_session}): a warm request is a resume plus
    preemption-timer slices of the request's compute, microseconds of
    overhead, and every core serves concurrently while the legacy OS
    keeps running. The finite sePCR bank bounds the resident set: a
    cold start beyond it must evict (SKILL) another resident — sealing
    its durable state out, to be unsealed by a later re-launch of the
    same code identity — and waits if every resident is mid-burst.
    Under software fault isolation ([Sfi]) residents are likewise kept
    hosted ({!Sea_core.Sfi_session}) but transitions cost a VM-exit
    round trip and the pool is unbounded: no sePCR scarcity, so no
    evictions and no waits.

    All three paths dispatch through one {!Sea_core.Backend.t} value;
    the mode only selects which.

    Mechanically the loop is virtual-time queueing over real
    executions: arrivals, admission and core occupancy are tracked in
    virtual time off the engine clock, while every service interval is
    measured by actually running the session or slices on the machine
    (the engine clock ratchets forward monotonically). All randomness
    comes from streams split off the machine engine, so a given seed
    and configuration replays bit-identically. *)

type mode = Sea_core.Backend.kind = Current | Proposed | Sfi

val mode_name : mode -> string

val mode_names : string list
(** CLI spellings of every mode, for "unknown mode" messages. *)

val mode_of_name : string -> mode option
(** Parse a CLI spelling (case-insensitive); [None] for unknown names. *)

type config = {
  mode : mode;
  duration : Sea_sim.Time.t;  (** How long arrivals keep coming. *)
  queue_depth : int;
  discipline : Admission.discipline;
  analyze : Sea_analysis.Analyzer.gate;
      (** Static-analysis launch gate applied to every session and
          resident launch (default [Off]). Analysis is content-addressed
          through {!Sea_core.Pal}'s certificate cache, so each distinct
          image is analyzed once per process regardless of request
          volume, and the gate costs no virtual time: an admitted run's
          report is byte-identical to the ungated one. *)
  preemption_timer : Sea_sim.Time.t;  (** Slice budget ([Proposed]). *)
  faults : Sea_fault.Fault.spec option;
      (** Deterministic fault plan injected at the TPM/LPC boundary for
          the serving window (installed after bootstrap). *)
  retry : Sea_fault.Retry.policy option;
      (** Retry policy around the hardware path; defaults to
          [Sea_fault.Retry.policy ()] whenever [faults] is set. *)
  breaker : Breaker.config option;
      (** Per-(tenant, kind) circuit breakers; default on (with
          {!Breaker.config} defaults) whenever [faults] is set. *)
  vtpm : int option;
      (** Multiplex this many virtual TPMs over the machine's hardware
          TPM ([Sea_vtpm]); every session — bootstrap included — then
          executes against its tenant's vTPM capability (tenant [i] →
          instance [i mod vtpm]), with the hardware part serving only as
          the integrity anchor. [None] (default): sessions talk to the
          hardware TPM directly, byte-for-byte the historical
          behaviour. *)
  vtpm_batch : int;
      (** Anchor-pipeline batch size (pending state-change records per
          hardware anchor flush; default 16). Affects only the anchor
          pipeline's background lag: reports are byte-identical across
          batch sizes. *)
}

val config :
  ?queue_depth:int ->
  ?discipline:Admission.discipline ->
  ?analyze:Sea_analysis.Analyzer.gate ->
  ?preemption_timer:Sea_sim.Time.t ->
  ?faults:Sea_fault.Fault.spec ->
  ?retry:Sea_fault.Retry.policy ->
  ?breaker:Breaker.config ->
  ?vtpm:int ->
  ?vtpm_batch:int ->
  mode:mode ->
  duration:Sea_sim.Time.t ->
  unit ->
  config
(** Defaults: depth 16, FIFO, analysis gate [Off], 10 ms preemption
    timer, no faults, no vTPM layer, vTPM batch 16. Raises
    [Invalid_argument] on non-positive values. *)

(** {1 Lifecycle}

    A server is one machine's serving state kept alive across a window:
    queues, breakers, residents, vTPM instances and each tenant's
    arrival cursor. {!create} opens the window, {!advance} serves it in
    as many steps as the caller likes, and {!finish} drains and reports.
    Each open-loop tenant's Poisson train is drawn from one persistent
    cursor, so where the steps are cut does not show in the report. *)

type t

val create :
  Sea_hw.Machine.t -> config -> Workload.tenant list -> (t, string) result
(** Validate the machine, provision the vTPM layer, bootstrap sealed
    state (on [Current]) and install the fault plan; the window opens on
    the engine clock after bootstrap, with the listed tenants (possibly
    none) hosted. [Error] as for {!run}. *)

val advance : t -> until:Sea_sim.Time.t -> unit
(** Draw each hosted tenant's arrivals up to [until] (an offset into the
    window, capped at [duration]) and run the event loop to it. *)

val finish : t -> Report.t
(** Serve the admitted backlog, tear the machine down (residents, vTPM
    anchor pipeline, fault plan) and report one row per tenant ever
    hosted, in hosting order. The window stretches to the last
    completion, so slow modes cannot hide a backlog. *)

(** {2 Hand-off}

    What a fleet does to a server paused between two {!advance} steps:

    - {!unhost}: the tenant stops drawing arrivals; its queued requests
      drain here and its residents are released once they have.
    - {!host}: the tenant draws arrivals here from now on. The first
      time, it gets a stream split off the engine and, on [Current], its
      sealed state is bootstrapped (a failure is retried by its first
      request). A new arrival process for a hosted tenant (a shaped
      rate's next step) restarts its train, exact for Poisson arrivals.
    - {!adopt}: a resident that migrated or respawned here serves the
      tenant's next request warm; it is disposed instead if the tenant
      is not hosted or already has one, or the pool is full.
    - {!crash}: every queued and in-service request fails and every
      resident is dropped; the server resumes later with no
      re-bootstrap.
    - {!skip}: {!advance} while the machine is down or partitioned
      away. Admitted work is still served, but every arrival is
      black-holed and counted (a closed-loop client once, then it waits
      for the machine); the count comes from the same cursors, so it
      does not depend on how the outage is cut. *)

val host : t -> Workload.tenant -> unit
val unhost : t -> string -> unit

val adopt :
  t -> tenant:string -> Workload.kind -> Sea_core.Backend.instance -> unit

val crash : t -> unit
val skip : t -> until:Sea_sim.Time.t -> int

val offered : t -> int
(** Requests offered so far, all tenants. *)

val completed : t -> tenant:string -> int
(** The named tenant's completions here so far (0 if never hosted). *)

val run :
  Sea_hw.Machine.t ->
  config ->
  Workload.tenant list ->
  (Report.t, string) result
(** {!create}, one {!advance} to [duration], then {!finish}: bootstrap
    sealed state (on [Current]), generate arrivals for [duration], serve
    until the admitted backlog drains, and report. [Error] covers
    machine/mode mismatch
    (no TPM, or [Proposed] without the proposed hardware) and bootstrap
    failures; per-request errors are counted in the report's [failed]
    column instead. Raises [Invalid_argument] on an empty tenant
    list.

    With [faults] set, the plan is installed on the TPM and LPC bus for
    the serving window only, and the loop degrades gracefully rather
    than failing requests outright: transient errors are retried with
    virtual-time backoff; a resident whose resume still faults is
    quarantined (SKILLed) and the request served by a fresh cold start;
    a (tenant, kind) stream that keeps failing is shed by its circuit
    breaker for a cooldown instead of being dispatched to certain
    failure. Breaker sheds count in the rows' [shed], preserving
    [offered = completed + shed + timed_out + failed].

    With [vtpm] set, faults also reach the vTPM anchor path: background
    anchor extends burn bounded retries against injected busy faults and
    a checkpoint seal can fail permanently — either quarantines only the
    affected vTPM. A quarantined vTPM is healed on the next request
    routed to it; if the repair still fails, only that tenant's requests
    fail (and its breaker opens) while every other vTPM keeps
    serving. *)
