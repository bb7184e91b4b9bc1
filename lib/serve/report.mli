(** Serving reports: per-tenant and aggregate accounting of one
    server's window ({!Server.finish}), with tail latencies.

    Invariant per row: [offered = completed + shed + timed_out + failed]
    plus any requests still queued when the run was cut off (the server
    drains its queue, so normally none). Goodput is completed requests
    over the measurement window; the window extends past the configured
    duration if the backlog drained later. *)

open Sea_sim

type row = {
  tenant : string;
  weight : int;
  offered : int;  (** Requests that arrived (incl. later shed ones). *)
  completed : int;  (** Served successfully: the goodput numerator. *)
  shed : int;  (** Rejected at admission: queue bound hit. *)
  timed_out : int;  (** Dropped at dispatch: queued past the deadline. *)
  failed : int;  (** Session/launch errors (normally zero). *)
  latency_ms : Stats.t;  (** Arrival-to-response, completed requests. *)
  queue_high_water : int;
}

type vtpm_stats = {
  instances : int;  (** Virtual TPMs multiplexed on this machine. *)
  extends : int;  (** Virtual PCR extends (anchor records enqueued). *)
  seals : int;  (** Software seals served by vTPM instances. *)
  unseals : int;
  resets : int;  (** Quarantined vTPMs healed back into service. *)
}
(** Batch-size-invariant vTPM counters: anchor flush/batch-occupancy
    counts depend on the [--vtpm-batch] pipeline setting and live in the
    trace ("vtpm" category) instead, so a report renders byte-identically
    for any batch size. *)

type t = {
  mode : string;
  machine : string;
  cores : int;
  discipline : string;
  depth : int;
  cost_budget : int option;
      (** The per-tenant in-flight cost budget when the cost-aware
          admission discipline ({!Admission.discipline}[.Cost]) was
          active; [None] otherwise (and then no cost line renders). *)
  cost_shed : int;
      (** Offers turned away by the cost budget rather than queue depth
          (a subset of the rows' [shed]). *)
  window : Time.t;
  rows : row list;
  aggregate : row;
  pal_busy : Time.t;  (** Total core-time spent in or stalled on PALs. *)
  legacy_utilization : float;
      (** Fraction of core-time left to the legacy OS, in [0,1]. *)
  stalled : Time.t;  (** Whole-platform stall (today's hardware only). *)
  stall_ms : Stats.t;  (** Per-request stall intervals, ms. *)
  cold_starts : int;  (** Launches that paid full measurement. *)
  warm_hits : int;  (** Requests served by a resident suspended PAL. *)
  evictions : int;  (** Residents SKILLed to free an sePCR. *)
  sepcr_waits : int;  (** Cold starts that blocked on a busy sePCR pool. *)
  sepcr_wait_ms : Stats.t;
  faults_injected : (string * int) list;
      (** Per-kind injected fault counts ([Sea_fault.Fault.kind_name]
          order); empty when no fault plan was installed. *)
  fault_stall : Time.t;  (** Extra bus time injected by LPC stalls. *)
  retries : int;  (** Transient-failure retries performed while serving. *)
  retry_give_ups : int;  (** Operations still failing after all retries. *)
  breaker_shed : int;
      (** Arrivals rejected by an open circuit breaker (a subset of the
          rows' [shed], so the accounting invariant is unchanged). *)
  breaker_transitions : int;  (** Breaker state changes, all breakers. *)
  degraded : Time.t;
      (** Cumulative virtual time breakers spent outside [Closed]. *)
  recoveries : int;
      (** Residents quarantined after a faulted resume and replaced by a
          cold start within the same request. *)
  vtpm : vtpm_stats option;
      (** Present iff a vTPM multiplexer served this run (and then the
          vtpm line renders). *)
}

val merge_rows : tenant:string -> row list -> row
(** Combine accounting rows from independent runs (one machine's
    aggregate each, in a fleet) into one row labelled [tenant]: counters
    and weights sum, latency samples are merged exactly (in list order,
    via {!Sea_sim.Stats.merge}) so percentiles of the result are true
    cross-run percentiles, and the queue high-water mark is the max. *)

val row_consistent : row -> bool
(** The per-row accounting invariant:
    [offered = completed + shed + timed_out + failed]. Preserved by
    {!merge_rows}; exported so fleet-level checks and tests share one
    definition. *)

val robustness_active : t -> bool
(** Whether any robustness counter is non-zero — i.e. whether {!pp}
    appends the fault/retry/breaker lines. Always false for a fault-free
    run, whose render is bit-identical to a build without the fault
    machinery. *)

val pp_vtpm_and_cost :
  Format.formatter -> vtpm_stats option * int option * int -> unit
(** The optional vTPM and cost-admission lines, shared with the fleet
    report: each renders only when its layer was active. *)

val goodput_per_s : t -> row -> float
val pp : Format.formatter -> t -> unit
val render : t -> string
(** The full report as a string; identical seeds and configuration give
    bit-identical renders. *)
