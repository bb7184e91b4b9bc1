(** Serving workloads: request kinds drawn from the paper's example
    applications ([lib/apps]) and per-tenant arrival processes.

    A {e request kind} couples a real application PAL (its measured
    bytes, its protected compute and its sealed-state discipline) with
    the input framing one request of that application needs:

    - [Ssh_auth] — {!Sea_apps.Ssh_password}: unseal the password record,
      check an attempt, no reseal (8 KB, 1 ms of protected work);
    - [Ca_sign] — {!Sea_apps.Cert_authority}: unseal the signing key,
      sign a CSR, no reseal (16 KB, 2 ms);
    - [Kv_update] — the paper's resealing PAL Use ({!Sea_core.Generic}):
      unseal, update, reseal (64 KB, 5 ms) — the distributed-computing
      pattern, and the heaviest launch in the mix.

    A {e tenant} names a principal sending a weighted mix of request
    kinds under an arrival process: open-loop Poisson (arrivals keep
    coming regardless of service — the overload regime) or closed-loop
    fixed concurrency (each simulated client waits for its response,
    thinks, and sends the next — the interactive regime). All
    randomness is drawn from {!Sea_sim.Rng} streams split off the
    machine engine, so workloads replay bit-identically from a seed. *)

type kind = Ssh_auth | Ca_sign | Kv_update

val kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option
val kind_index : kind -> int

val pal : kind -> Sea_core.Pal.t
(** The application PAL serving this kind — one shared [Pal.t] per kind,
    so every request of a kind carries the same measurement and sealed
    state round-trips between requests. *)

val work : kind -> Sea_sim.Time.t
(** Application-specific protected compute per request (the PAL's
    [compute_time]); what a resident PAL consumes per request on the
    proposed hardware. *)

val init_input : kind -> tenant:string -> string
(** The state-creating command (PAL Gen / [setup] / [init]) run once per
    (tenant, kind) before serving starts on today's hardware. *)

val init_state_of_output : kind -> string -> (string, string) result
(** Extract the sealed state blob the init session returned. *)

val request_input : kind -> tenant:string -> state:string -> seq:int -> string
(** Frame one request against the current sealed state blob. *)

val updates_state : kind -> bool
(** Whether a completed request's output replaces the sealed state blob
    (the resealing pattern). *)

val resident_pal : kind -> Sea_core.Pal.t
(** The same measured bytes with open-ended work, for keeping the PAL
    resident under {!Sea_core.Slaunch_session} on the proposed hardware
    and feeding it one request's compute per resume/yield cycle. *)

val static_cost : kind -> int
(** The static admission cost of one request of this kind:
    {!Sea_analysis.Certificate.admission_cost} of the kind's image
    certificate, in virtual microseconds. Every kind's image is real,
    provably bounded PALVM bytecode, so these are finite and ordered
    [Ssh_auth < Ca_sign < Kv_update]. *)

(** {1 Tenants} *)

type process =
  | Open_loop of { rate_per_s : float }
      (** Poisson arrivals at the given mean rate. *)
  | Closed_loop of { clients : int; think : Sea_sim.Time.t }
      (** [clients] concurrent closed-loop clients; after each response
          (or rejection) a client thinks for an exponentially
          distributed time of the given mean ([Time.zero] = none)
          before its next request. *)

(** {1 Traffic shapes}

    A shape modulates an open-loop tenant's arrival rate over virtual
    time — the millions-of-users traces an autoscaler must ride out.
    Shapes are pure functions of the clock, so a shaped run replays
    bit-identically; the cluster layer holds each rate constant between
    shape cuts (see {!shape_instants}) and restarts the tenant's
    Poisson train at each step (a closed-loop tenant's concurrency is
    not modulated). *)

type shape =
  | Steady  (** Constant rate — the historical behavior. *)
  | Diurnal of { period : Sea_sim.Time.t; trough : float }
      (** Sinusoidal day/night cycle: the rate multiplier runs from
          [trough] (at phase 0, "midnight") up to [1.0] at half-period
          and back. Requires [period > 0] and [trough] in (0, 1]. *)
  | Flash of { at : Sea_sim.Time.t; width : Sea_sim.Time.t; spike : float }
      (** Flash crowd: a step to [spike ×] the base rate on
          [\[at, at + width)]. Requires [width > 0] and [spike > 0]. *)

val shape_multiplier : shape -> Sea_sim.Time.t -> float
(** The rate multiplier at a virtual instant. Pure. *)

val shape_instants : duration:Sea_sim.Time.t -> shape -> Sea_sim.Time.t list
(** Where a cluster steps the rate inside [\[0, duration)]: a flash
    crowd's onset and end, reproduced exactly rather than smeared, or a
    diurnal curve's sampling grid (8 per cycle, never finer than
    [duration / 64]). Empty for steady shapes. *)

type tenant = {
  name : string;
  weight : int;  (** Share under weighted-fair admission. *)
  mix : (kind * int) list;  (** Weighted request mix. *)
  process : process;
  deadline : Sea_sim.Time.t option;
      (** Queueing deadline: a request still queued this long after
          arrival is dropped as timed out rather than served. *)
  shape : shape;
      (** Rate modulation over virtual time; [Steady] leaves the
          process untouched. *)
}

val tenant :
  ?weight:int ->
  ?mix:(kind * int) list ->
  ?deadline:Sea_sim.Time.t ->
  ?shape:shape ->
  name:string ->
  process ->
  tenant
(** Validated constructor. Defaults: weight 1, mix 100% [Ssh_auth], no
    deadline, steady shape. Raises [Invalid_argument] on non-positive
    weights, rates, client counts, an empty mix or an ill-formed
    shape. *)

val at_time : Sea_sim.Time.t -> tenant -> tenant
(** [at_time now t] specializes [t]'s open-loop rate to the instant
    [now] under its shape (identity for steady or closed-loop tenants):
    the rate a cluster serves from the shape cut at [now] on. *)

val draw_kind : Sea_sim.Rng.t -> tenant -> kind
(** Sample one request kind from the tenant's weighted mix. *)

val preset :
  ?deadline:Sea_sim.Time.t ->
  ?shape:shape ->
  ?popularity:[ `Even | `Zipf of float ] ->
  tenants:int ->
  [ `Open of float | `Closed of int * Sea_sim.Time.t ] ->
  tenant list
(** [preset ~tenants:n (`Open total_rate)] builds [n] single-kind
    tenants cycling through {!kinds} with weights cycling 1–3, the
    total arrival rate split evenly; [`Closed (clients, think)] gives
    every tenant that many closed-loop clients instead. [shape]
    (default steady) applies to every tenant. [popularity] splits the
    open-loop total: [`Even] (default, the historical split) or
    [`Zipf alpha] — tenant [i] gets a share proportional to
    [1/(i+1)^alpha], the heavy-tailed popularity curve (ignored for
    closed-loop tenants; alpha must be positive). *)
