(** Fleet simulation: N independent machines, each running the
    {!Sea_serve.Server} virtual-time loop, sharded across OCaml 5
    [Domain]s.

    This is the paper's endgame question made measurable: if minimal-TCB
    execution is to be an everyday OS service, the unit of capacity
    planning is a {e fleet} — how many machines does a tenant population
    need on today's hardware versus the proposed hardware? A cluster run
    routes tenants to machines with a pluggable {!Router.policy}, serves
    every machine's share independently, and merges the per-machine
    reports into one {!Fleet_report.t}.

    {2 Determinism}

    Machine [i]'s entire schedule is a function of the master seed and
    [i] alone: per-machine engine seeds are carved off the master stream
    with {!Sea_sim.Rng.split_n} {e before} any machine runs, per-machine
    fault seeds likewise off the fault spec's own seed, and machines
    share no mutable state (each has its own engine, TPM, memory and
    tenant streams). Shards therefore only decide {e where} a machine's
    loop executes, never {e what} it computes: the merged report is
    byte-identical whether the fleet runs on 1 domain or 8 — asserted in
    CI by diffing [--shards 1] against [--shards 4] output — while
    wall-clock time scales down with the shard count.

    All machines are constructed on the calling domain, in index order,
    before any shard starts serving; shard domains only execute
    already-built machines. Per-machine traces are supported by handing
    each machine its own sink ({!Sea_trace.Trace} installation is
    domain-local).

    {2 Churn}

    With a {!churn_config}, the run injects machine-scoped failures from
    a deterministic {!Sea_fault.Machine_fault} plan and detects them
    with a virtual-time heartbeat detector: a machine that misses
    [dead_after] consecutive heartbeats is declared dead and its
    tenants re-route over the consistent-hash ring minus the dead node
    ({!Router.reroute}). In proposed mode each
    displaced tenant's resident PALs fail over by sealed-state migration
    ({!Migrate.failover}); requests offered to a machine that is down
    but not yet (or never, with failover off) detected are black-holed
    and accounted offered-and-failed.

    Every machine keeps one live {!Sea_serve.Server.t} for the whole
    window, which is cut into epochs wherever availability, routing
    belief, the autoscaler's loop or a workload shape changes. A
    barrier pauses the servers, runs the cross-machine work (detection,
    tenant hand-off, migration) on the calling domain in machine-index
    order, then resumes every reachable machine, sharded. Nothing is
    restarted at a cut, so a run without churn, autoscale or shapes is
    one epoch and an observe-only controller renders the uncontrolled
    report. While a machine is down its tenants' own arrival trains are
    lost; a crash also fails its queued and in-service requests. *)

type config = {
  machines : int;
  shards : int;
  policy : Router.policy;
}

val config : ?shards:int -> ?policy:Router.policy -> machines:int -> unit -> config
(** Defaults: 1 shard, round-robin routing. Raises [Invalid_argument]
    unless [machines >= 1], [shards >= 1] and [shards <= machines] —
    messages name the CLI flags, and [sea_cli cluster] turns them into a
    usage error (exit 1). *)

type churn_config = {
  plan : Sea_fault.Machine_fault.spec;
      (** Machine crash/partition/link-loss schedule. *)
  failover : bool;
      (** [true]: detect, re-route and migrate; [false]: machines fail
          in place and their traffic black-holes for the outage. *)
  heartbeat : Sea_sim.Time.t;  (** Heartbeat tick interval. *)
  dead_after : int;
      (** Consecutive missed heartbeats before a machine is declared
          dead. Detection latency is
          [heartbeat * dead_after] (to the next tick). *)
}

val churn :
  ?failover:bool ->
  ?heartbeat:Sea_sim.Time.t ->
  ?dead_after:int ->
  Sea_fault.Machine_fault.spec ->
  unit ->
  churn_config
(** Defaults: failover on, 100 ms heartbeat, dead after 3 misses.
    Raises [Invalid_argument] unless [heartbeat > 0] and
    [dead_after >= 1]. *)

val run :
  ?seed:int64 ->
  ?trace:(int -> Sea_trace.Trace.sink) ->
  ?churn:churn_config ->
  ?autoscale:Autoscale.config ->
  config ->
  machine_config:Sea_hw.Machine.config ->
  serve:Sea_serve.Server.config ->
  Sea_serve.Workload.tenant list ->
  (Fleet_report.t, string) result
(** Route the tenants, build machine [0..machines-1] (each with an
    engine seeded from the master [seed]'s split streams), serve every
    machine's share — distributing machines round-robin over [shards]
    domains — and merge.

    [serve] is the per-machine serving configuration. Its [faults] spec,
    if any, is re-seeded per machine from the spec's own seed so fault
    schedules are machine-independent; its [retry] policy must be unset
    ([Error] otherwise — a retry policy carries mutable counters that
    must not be shared across machines; each machine builds its own).

    [trace], when given, supplies machine [i]'s private sink; the sink
    is installed around that machine's serve only (in whichever domain
    runs it) and can be exported after [run] returns.

    [churn], when given, drives the failure-domain machinery described
    above; [Error] if failover is on with fewer than 2 machines, or if
    the plan downs every machine for the entire window.

    [autoscale], when given, runs the {!Autoscale} closed-loop
    controller at the epoch barriers: load sampling every interval,
    hot-spot detection, ring-weight resizing and tenant rebalancing by
    sealed-state migration or kill-and-respawn spreading; the moved
    resident joins the target's server. Requires [Hash_tenant] routing
    (the ring is what gets resized) and at least 2 machines ([Error]
    otherwise). Composes with [churn]: the epoch cuts are the union of
    both schedules, churn failover runs first at a shared barrier, and
    a tenant displaced by a machine death is the failover path's job,
    never double-moved by the controller.

    Non-steady {!Sea_serve.Workload.shape}s cut the window at each
    shape's step instants plus a sampling grid for continuous shapes;
    a tenant's rate is its shape at the latest such cut.

    Raises [Invalid_argument] on an empty tenant list. [Error] surfaces
    the first failing machine by index. *)
