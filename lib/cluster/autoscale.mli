(** The fleet autoscaler: a closed-loop controller over {!Cluster.run}.

    Machines never migrate work by themselves — the cluster routes
    statically within an epoch. The autoscaler closes the loop {e at
    the epoch barriers}: every [interval] of virtual time it samples
    each machine's measured load (requests offered to it since the
    previous tick), detects hot spots against the fleet mean, resizes
    the consistent-hash ring by halving a hot machine's capacity weight
    (and doubling a cool one's back, with hysteresis), and rebalances
    the tenants whose arcs moved.

    How a moved tenant's resident PALs follow it depends on the policy
    and the isolation backend:

    - {b migrate} — the paper's §5.4 sePCR seal/unseal protocol
      ({!Migrate.failover} with a live source): SYIELD the resident,
      seal its state bound to the sePCR, ship the blob over the
      {!Link}, unseal against the target's sePCR and resume warm. Only
      the proposed hardware has sePCR-bound residents; on other
      backends this policy degrades to spreading.
    - {b spread} — kill-and-respawn: the source resident is discarded
      and a fresh one launches on the target. On [--mode sfi] a
      software launch costs ~25 µs, so spreading beats paying the
      seal/transfer/unseal protocol; on proposed hardware the respawn
      pays a real cold SLAUNCH.
    - {b auto} (the CLI default) — migrate on proposed hardware, spread
      elsewhere.
    - {b static} — sample and report, never rebalance (the bench
      baseline).

    Sampling only reads the live servers' offered counters, so a
    {b static} controller leaves the report it observes untouched.
    Every decision is a pure function of those counters, which are
    deterministic and shard-independent, and all rebalance
    work runs at the barrier on the calling domain in machine-index
    order — so fleet reports stay byte-identical for any shard count
    while autoscaling, which CI asserts by diffing [--shards 1] against
    [--shards 4] with [--autoscale] on. *)

type policy = Static | Migrate | Spread | Auto

val policies : (string * policy) list
(** CLI name/value pairs: static, migrate, spread, auto. *)

val policy_name : policy -> string
val policy_of_name : string -> policy option

type config = {
  policy : policy;
  interval : Sea_sim.Time.t;  (** Control-loop sampling period. *)
  hot_threshold : float;
      (** A machine is hot when its measured load exceeds
          [hot_threshold ×] the mean over alive machines; cool (and
          eligible to regrow) below [mean / hot_threshold]. *)
  min_weight : int;
      (** Floor for a machine's ring weight — a hot machine is never
          shed below this many virtual points. *)
}

val config :
  ?policy:policy ->
  ?interval:Sea_sim.Time.t ->
  ?hot_threshold:float ->
  ?min_weight:int ->
  unit ->
  config
(** Defaults: auto policy, 1 s interval, 1.5× hot threshold, min
    weight 1. Raises [Invalid_argument] unless [interval > 0],
    [hot_threshold > 1] (the hysteresis band must be non-empty) and
    [min_weight] in [\[1, Router.virtual_points]]. *)

val tick_instants : config -> duration:Sea_sim.Time.t -> Sea_sim.Time.t list
(** The controller's sampling instants inside the serving window:
    [interval, 2·interval, …] strictly between 0 and [duration]. These
    become cluster epoch cuts. *)

type decision = {
  weights : int array;  (** The resized ring weights. *)
  hot : int list;  (** Machines detected hot this tick (index order). *)
  cooled : int list;  (** Machines whose weight was grown back. *)
}

val decide :
  config -> weights:int array -> alive:bool array -> loads:float array ->
  decision
(** One control-loop tick, pure: given the current ring weights, which
    machines are alive, and each machine's measured load (offered
    requests per second since the last tick), return the new weights.
    A hot machine's weight halves (floored at [min_weight]); an alive
    machine measured below [mean / hot_threshold] doubles back (capped
    at {!Router.virtual_points}). Dead machines keep their weight and
    are excluded from the mean. A fleet with zero mean load makes no
    change. *)
