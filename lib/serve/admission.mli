(** Bounded admission queues for the serving layer.

    Three disciplines:

    - [Fifo] — one global bounded queue, strict arrival order, shared
      [depth]; an arrival finding the queue full is shed.
    - [Weighted] — one bounded queue per tenant ([depth] each) drained
      by weighted round-robin: a tenant with weight [w] gets up to [w]
      dequeues per round while backlogged, so service shares follow the
      weights and one tenant's burst cannot starve the others.
    - [Cost budget] — cost-aware admission driven by static
      certificates ({!Sea_analysis.Certificate}): each offer carries
      the request's static cost, a tenant may keep at most [budget]
      cost units in flight (an offer that would exceed it is shed and
      counted in {!cost_shed}), and [take] drains the non-empty tenant
      with the cheapest queued backlog first — expensive tenants wait
      behind cheap ones instead of starving them.

    Purely mechanical (no clock, no randomness): determinism of the
    serving loop rests on [take] order being a function of [offer]
    order alone. High-water marks are tracked for the report. *)

type discipline = Fifo | Weighted | Cost of int

val discipline_name : discipline -> string

type 'a t

val create : discipline:discipline -> depth:int -> weights:int array -> 'a t
(** One slot-count [depth] (global for [Fifo], per-tenant for
    [Weighted] and [Cost]); [weights] gives the tenant count and their
    round-robin shares (ignored by [Fifo] and [Cost]); it may be empty
    and grow with {!add_tenant}. Raises [Invalid_argument] on a
    non-positive depth, weight or cost budget. *)

val add_tenant : 'a t -> weight:int -> int
(** Append a tenant with round-robin share [weight] and return its
    index. Raises [Invalid_argument] on a non-positive weight. *)

val offer : ?cost:int -> 'a t -> tenant:int -> 'a -> bool
(** Enqueue, or return [false] (shed) if the relevant bound is hit.
    [cost] (default 0) is the request's static cost; only [Cost]
    consults it. Raises [Invalid_argument] on a negative cost. *)

val take : 'a t -> (int * 'a) option
(** Dequeue the next request and its tenant, per the discipline. *)

val cost_shed : 'a t -> int
(** Offers turned away by the [Cost] budget (not by queue depth). *)

val length : 'a t -> int
val tenant_length : 'a t -> int -> int
val high_water : 'a t -> int
val tenant_high_water : 'a t -> int -> int
