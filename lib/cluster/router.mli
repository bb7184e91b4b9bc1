(** Front-end routing: which fleet machine serves which tenant.

    The router is the only component that sees the whole tenant
    population; everything downstream of it is per-machine and
    independent. All three policies are pure functions of the tenant
    list and the machine count — no randomness, no global state — so an
    assignment is reproducible and identical no matter how the fleet's
    machines are later sharded across domains. *)

type policy =
  | Round_robin  (** Tenant [i] goes to machine [i mod machines]. *)
  | Hash_tenant
      (** Consistent hashing by tenant name on a ring of virtual points
          per machine: adding or removing one machine only moves the
          tenants whose arc changed, and a tenant's home depends on its
          name alone, not its position in the list. *)
  | Least_loaded
      (** Greedy balance by offered rate: tenants are placed in list
          order, each on the machine with the least accumulated offered
          load (open-loop tenants contribute their arrival rate;
          closed-loop tenants a clients-over-think-time proxy). *)
  | Cost_weighted
      (** [Least_loaded] with each tenant's contribution scaled by the
          mean static admission cost of its request mix
          ({!Sea_analysis.Certificate.admission_cost} of each kind's
          cost certificate, mix-weighted): tenants sending loop-heavy
          or TPM-heavy kinds count as proportionally more load, so
          equal request rates no longer imply equal placement. Still a
          pure function of the tenant list and machine count — the
          certificates are static. *)

val policies : (string * policy) list
(** CLI name/value pairs: round-robin, hash, least-loaded,
    cost-weighted. *)

val policy_name : policy -> string

val policy_of_name : string -> policy option

val assign : policy -> machines:int -> Sea_serve.Workload.tenant list -> int array
(** [assign p ~machines tenants] gives each tenant (by list position) a
    machine index in [\[0, machines)]. Raises [Invalid_argument] when
    [machines < 1]. *)

(** {1 The consistent-hash ring, explicitly}

    Failover and the autoscaler both re-place tenants on the ring many
    times per run; building the ring once per (weights, alive) epoch and
    looking tenants up against it avoids rebuilding it per tenant. *)

type ring
(** A materialized consistent-hash ring: virtual points sorted by hash. *)

val virtual_points : int
(** Canonical points per machine at full weight (32) — also the maximum
    ring weight. *)

val make_ring : ?weights:int array -> int list -> ring
(** [make_ring ?weights alive] builds the ring over the [alive] machine
    indices. [weights.(m)] (default [virtual_points], range
    [\[1, virtual_points]]) is machine [m]'s capacity weight: it
    contributes its {e first} [weights.(m)] canonical virtual points,
    with their original hashes. Because shrinking a weight only deletes
    points (and growing only restores them), a resize moves exactly the
    tenants on the affected arcs — the stability bound the autoscaler's
    regression test pins at ≤ 2/N moved per single-machine resize.
    Raises [Invalid_argument] on an empty list, an index outside
    [weights], or a weight outside [\[1, virtual_points]]. *)

val lookup : ring -> Sea_serve.Workload.tenant -> int
(** The tenant's home machine: the first ring point at or clockwise of
    the FNV-1a hash of its name. *)

val reroute :
  ?weights:int array -> alive:int list -> Sea_serve.Workload.tenant -> int
(** Failover routing: the tenant's home on the consistent-hash ring
    restricted to the [alive] machine indices (at the given capacity
    weights, default full). Survivors keep their original virtual
    points, so removing a dead machine moves only the tenants whose
    arcs it owned — regardless of which policy produced the original
    assignment, displaced tenants spread over survivors proportionally
    to ring ownership. Equivalent to
    [lookup (make_ring ?weights alive)]. Raises [Invalid_argument] on
    an empty survivor list. *)
