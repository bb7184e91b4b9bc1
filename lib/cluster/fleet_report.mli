(** Fleet reports: deterministic merge of per-machine serving reports.

    The merge is a pure fold over the machine rows {e in machine-index
    order}: counters sum, latency samples concatenate exactly (via
    {!Sea_sim.Stats.merge}, so fleet p50/p95/p99 are true cross-machine
    percentiles, not averages of percentiles), and the fleet window is
    the longest machine window (machines serve concurrently in virtual
    time, so the fleet is done when its slowest machine is).

    Because each machine's report is itself deterministic and the merge
    order is fixed by index, {!render} is byte-identical no matter how
    many domains the fleet was sharded across — deliberately, nothing
    about the shard count or host wall-clock appears in the render; the
    CI determinism gate diffs exactly this string.

    Under churn, a machine row additionally carries the requests
    black-holed while the machine was down ([lost]); they fold into the
    row's and the fleet's accounting as offered-and-failed, preserving
    [offered = completed + shed + timed_out + failed]. A machine that
    was down for its entire window has an empty completion window and
    renders an explicit [n/a] latency instead of raising from the empty
    sample set. The churn/failover/recovered-goodput lines render only
    when a machine-fault plan drove the run, so churn-free reports stay
    byte-identical to the pre-churn layout. *)

open Sea_sim
open Sea_serve

type machine_row = {
  index : int;
  tenants : int;  (** Tenants routed to this machine; 0 = idle. *)
  report : Report.t option;
      (** [None] iff the machine is idle or was down for its whole
          window. *)
  lost : int;
      (** Requests black-holed while the machine was down (offered but
          never served); 0 on every churn-free run. *)
}

type churn_stats = {
  failover : bool;  (** Whether sealed-state failover was enabled. *)
  crashes : int;  (** Machine-crash outages across the fleet. *)
  partitions : int;  (** Net-partition outages across the fleet. *)
  heartbeat_misses : int;
      (** Heartbeat ticks the failure detector counted against downed
          machines before declaring them dead. *)
  failovers : int;  (** Tenant relocations performed at detection. *)
  migrations : int;
      (** Warm failovers: sealed state shipped, unsealed and resumed on
          the survivor ({!Migrate.Warm}). *)
  cold_restarts : int;
      (** PALs re-launched without their state (blob lost, source
          crashed mid-seal, or torn transfer). *)
  torn_backouts : int;
      (** Torn transfers whose target page/sePCR claim was backed out
          before the cold re-launch. *)
  link_drops : int;  (** Messages the lossy migration link lost. *)
  link_retries : int;  (** Link re-transmissions burned. *)
  lost_requests : int;  (** Total black-holed requests (sum of [lost]). *)
  recovered : int;
      (** Completions by failed-over tenants on survivor machines — the
          goodput failover recovered that a static fleet would have
          black-holed. *)
}

type autoscale_stats = {
  as_policy : string;  (** static, migrate, spread or auto. *)
  interval : Time.t;  (** Control-loop sampling period. *)
  hot_threshold : float;  (** Hot-spot detection threshold (× mean). *)
  ticks : int;  (** Control-loop ticks that fired inside the window. *)
  hot_events : int;  (** Hot-machine detections summed over ticks. *)
  resizes : int;  (** Ring-weight changes applied (shrinks + regrows). *)
  tenants_moved : int;  (** Tenants re-homed by ring resizes. *)
  warm_moves : int;
      (** Residents that followed their tenant by sealed-state
          migration and resumed warm ({!Migrate.Warm}). *)
  cold_moves : int;
      (** Migrations that degraded to a cold re-launch (torn transfer,
          lost blob). *)
  respawns : int;
      (** Residents re-homed by kill-and-respawn spreading (the SFI
          path, or the spread policy on any backend). *)
}

type t = {
  mode : string;
  hw : string;  (** The per-machine hardware preset's name. *)
  machines : int;
  idle : int;  (** Machines the router left without tenants. *)
  policy : string;
  discipline : string;
  depth : int;
  cost_budget : int option;
      (** The per-tenant cost budget when cost-aware admission was
          active on the machines; [None] otherwise. *)
  cost_shed : int;  (** Summed cost-budget sheds across machines. *)
  window : Time.t;  (** Longest per-machine measurement window. *)
  per_machine : machine_row list;  (** In machine-index order. *)
  fleet : Report.row;  (** Merged aggregate row, named ["fleet"]. *)
  pal_busy : Time.t;
  stalled : Time.t;
  cold_starts : int;
  warm_hits : int;
  evictions : int;
  sepcr_waits : int;
  faults_injected : (string * int) list;  (** Summed per kind. *)
  retries : int;
  retry_give_ups : int;
  breaker_shed : int;
  breaker_transitions : int;
  recoveries : int;
  vtpm : Report.vtpm_stats option;
      (** Summed vTPM counters (including [instances] — the fleet's
          total vTPM population); [None] when no machine multiplexed. *)
  churn : churn_stats option;
      (** Present iff a machine-fault plan drove the run; gates the
          churn report lines. *)
  autoscale : autoscale_stats option;
      (** Present iff the autoscale controller drove the run; gates the
          autoscale report lines. *)
}

val merge :
  ?churn:churn_stats ->
  ?autoscale:autoscale_stats ->
  policy:string ->
  machine_row list ->
  t
(** Fold the rows (already in machine-index order) into a fleet view.
    Raises [Invalid_argument] if the list is empty or no machine has a
    report (the cluster layer guarantees at least one tenant, hence at
    least one serving machine). *)

val goodput_per_s : t -> float
(** Fleet goodput: total completions over the fleet window. *)

val robustness_active : t -> bool
(** Whether any fault/retry/breaker counter is non-zero anywhere in the
    fleet; gates the extra report lines exactly like
    {!Sea_serve.Report.robustness_active}. *)

val pp : Format.formatter -> t -> unit

val render : t -> string
(** The whole fleet report as a string. Identical seeds, configuration
    and routing give a byte-identical render regardless of shard
    count. *)
