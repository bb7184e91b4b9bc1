(** Zero-cost-when-off structured tracing and metrics, keyed to virtual time.

    A {!sink} collects spans (nested begin/end intervals with a category
    and arguments), instant events, counters and per-span-name latency
    histograms, all timestamped with the {!Sea_sim.Engine} virtual clock.
    Exactly one sink can be installed per domain (installation is
    domain-local state, so each shard of a multi-domain fleet simulation
    can trace its own machines independently); every instrumentation
    point in the platform first checks {!on} and does nothing — advances
    no time, draws no randomness, emits no event — when no sink is
    installed in the calling domain, so an untraced run is bit-identical
    to a build without this module.

    Spans nest: {!with_span} pushes onto a per-sink stack and pops on the
    way out (exception-safe), so the exported stream is always balanced
    even when a traced operation fails mid-way. Timestamps are virtual
    nanoseconds mapped to Chrome-trace microseconds, so a seeded run
    exports byte-identical JSON every time. *)

type value = Str of string | Int of int | Bool of bool
(** Argument values attached to events. *)

type args = (string * value) list

type sink

val create : unit -> sink
(** A fresh, empty sink. Creating one does not install it. *)

val uninstall : unit -> unit
(** Remove the calling domain's installed sink, if any; tracing reverts
    to free. *)

val installed : unit -> sink option

val on : unit -> bool
(** [true] iff a sink is installed. The fast check every instrumentation
    point guards on. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s] for the duration of [f] and restores the
    previous installation state afterwards, also on exception. *)

(** {1 Emitting events}

    Every emitter is a no-op when no sink is installed. [args] is a
    thunk so that argument lists are only built when tracing is on. *)

val with_span :
  Sea_sim.Engine.t ->
  cat:string ->
  ?args:(unit -> args) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span engine ~cat name f] runs [f] inside a span named [name].
    The span closes when [f] returns or raises, so nesting stays
    balanced on every error path. The span's duration (with and without
    child-span time) is accumulated into the per-[(cat, name)] latency
    histogram. *)

val instant : Sea_sim.Engine.t -> cat:string -> ?args:(unit -> args) -> string -> unit
(** A zero-duration marker event at the current virtual instant. *)

val complete :
  Sea_sim.Engine.t ->
  cat:string ->
  ?args:(unit -> args) ->
  start:Sea_sim.Time.t ->
  stop:Sea_sim.Time.t ->
  string ->
  unit
(** A retroactive span covering [\[start, stop\]], emitted after the fact
    (Chrome ["X"] event): used for intervals only known at their end,
    such as a request's queue wait. Rendered on its own lane so it
    cannot unbalance the live span stack. *)

val count : Sea_sim.Engine.t -> string -> int -> unit
(** [count engine name n] adds [n] to the cumulative counter [name] and
    emits a Chrome counter sample of the new running total. *)

(** {1 Inspection (for summaries, benches and tests)} *)

val depth : sink -> int
(** Currently open spans; [0] after any balanced run. *)

val events : sink -> int
(** Total events emitted into the sink. *)

val counter : sink -> string -> int
(** Running total of a counter; [0] if never incremented. *)

type span_stat = {
  cat : string;
  name : string;
  count : int;
  total : Sea_sim.Time.t;  (** Summed span durations, children included. *)
  self : Sea_sim.Time.t;  (** Summed durations minus child-span time. *)
}

val span_stats : sink -> span_stat list
(** Per-[(cat, name)] aggregates, sorted by descending total time (ties
    by category then name, so the order is deterministic). *)

val category_self : sink -> string -> Sea_sim.Time.t
(** Summed self time of every span in one category: the exclusive cost
    of that layer, the unit of the paper's Table-1 decomposition. *)

(** {1 Export} *)

val export_json : sink -> string
(** The collected events as Chrome [trace_event] JSON (an object with a
    ["traceEvents"] array), loadable in Perfetto / chrome://tracing.
    Virtual nanoseconds are rendered as microsecond timestamps with
    three decimals, so the output is byte-deterministic. *)

val summary : sink -> string
(** A compact text report: top spans by total time, per-category self
    times, and counters. *)
