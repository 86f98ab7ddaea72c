(** The global telemetry registry.

    A process-wide typed registry of counters, gauges and histograms
    that every substrate emits into, sampled on the {e sim clock} into a
    bounded time-series of {!snapshot}s by the kernels' dispatch loop
    as its clock advances ([Xc_platforms.Dispatch.run], under the
    station and cluster kernels; see {!sample_boundaries}).
    Disabled it costs one atomic load per emitter; the state is
    domain-local, and {!capture} with {!merge_telemetry} give the
    runner's cells ([Xc_suite.Run]) the same deterministic cross-domain
    join the tracer has ([Trace.capture] with [Trace.concat]), so
    telemetry artifacts are byte-identical at any [--jobs].

    Enabled, an emit looks its metric up by [cat] and then by [name]
    in a two-level table and updates a flat float cell in place, so
    the registry builds no key string and boxes no float.  A metric is registered
    on its first emit, which is the only time the registry's
    key-sorted metric array is rebuilt; snapshots and {!capture} walk
    that array, and a snapshot scans each histogram's buckets once for
    its p50, p99 and max. *)

type dist_view = { n : int; p50 : float; p99 : float; max_ : float }
(** Scalar projection of a histogram metric at snapshot time.  No
    sum/mean: float addition is not associative, and snapshots must be
    byte-identical however worker domains grouped the samples.  The
    full [Histogram.t] (whose merge {e is} deterministic bucket-wise)
    travels separately in {!telemetry}. *)

type sample =
  | Count of float  (** cumulative counter value *)
  | Level of float  (** gauge level at snapshot time *)
  | Dist of dist_view

type snapshot = {
  at : Time_ns.t;
  values : (string * sample) list;  (** key = ["cat/name"], sorted *)
}

type telemetry = {
  snapshots : snapshot list;  (** oldest first, at most [retention] *)
  snap_dropped : int;  (** snapshots evicted by the retention bound *)
  counters : (string * float) list;  (** final totals, sorted by key *)
  gauges : (string * float) list;  (** final levels, sorted by key *)
  hists : (string * Histogram.t) list;  (** full distributions, sorted *)
}

val empty_telemetry : telemetry

val default_interval_ns : float
(** 50 sim-µs. *)

val default_retention : int
(** 8192 snapshots per capture. *)

val enable : ?interval_ns:float -> ?retention:int -> unit -> unit
(** Turn telemetry on process-wide.  [interval_ns] (default
    {!default_interval_ns}, must be >= 1) is the sim-clock snapshot
    cadence; [retention] (default {!default_retention}, must be >= 1)
    bounds the in-memory time-series — on overflow the oldest snapshot
    is evicted and counted in [snap_dropped].  Both settings persist
    until changed by a later [enable]. *)

val disable : unit -> unit

val on : unit -> bool
(** One atomic load; inlinable.  Emitters are already guarded, but hot
    call sites should test this before building arguments. *)

val interval_ns : unit -> float
(** The snapshot interval {!enable} set: {!sample_boundaries}
    snapshots at its multiples.  A loop reads it once per run to test
    for a boundary crossing itself. *)

(** {2 Emitters}

    All are no-ops when disabled.  [cat] names the substrate
    (["cpu"], ["os"], ["mem"], ["hypervisor"], ["net"], ["platform"],
    ["isa"], ["abom"], ["app"]) and must not contain ['/']. *)

val counter_add : cat:string -> name:string -> float -> unit
val counter_incr : cat:string -> name:string -> unit
val gauge_set : cat:string -> name:string -> float -> unit
val gauge_add : cat:string -> name:string -> float -> unit
val hist_observe : cat:string -> name:string -> float -> unit

(** {2 Snapshot driver} *)

val take_snapshot : at:Time_ns.t -> unit
(** Append one snapshot of the current domain's registry at sim time
    [at], evicting the oldest beyond the retention bound. *)

val sample_boundaries : from:Time_ns.t -> until:Time_ns.t -> unit
(** Snapshot at every interval boundary [k*interval_ns] in
    [(from, until]] — called by a simulation loop each time its sim
    clock advances, {e before} the event at [until] executes.  No
    event runs between the boundaries of one jump, so their snapshots
    share one value list; when the jump spans more boundaries than the
    retention window, only the survivors are materialised and the rest
    counted as dropped. *)

(** {2 Capture and composition} *)

val capture : (unit -> 'a) -> 'a * telemetry
(** [capture f] runs [f] with a fresh registry on this domain and
    returns [(result, telemetry)]; the state live before the call is
    restored afterwards (also on exceptions, in which case the inner
    telemetry is discarded and the exception re-raised).  When
    disabled: [(f (), empty_telemetry)]. *)

val merge_telemetry : telemetry -> telemetry -> telemetry
(** Pure merge of two captures: counters add, gauges last-writer-wins
    (the second argument being the later writer), histograms merge
    bucket-wise, drop counts add, and snapshots append on one time
    axis: each of the second capture's snapshot times moves past the
    first capture's last snapshot (by its [at]), as
    [Xc_trace.Trace.concat] moves a segment past the one before, so a
    merged series never steps back in time.  Registry-free and without
    retention eviction (both sides enforced the bound when recording).
    Associative: folding cell telemetry in cell order ([Xc_suite.Run])
    is deterministic at any worker count. *)

(** {2 Export} *)

val to_trace_events : telemetry -> Xc_trace.Trace.event list
(** The snapshot time-series as [Counter] trace events (one per scalar
    metric per snapshot; histogram metrics expand to [.n]/[.p50]/
    [.p99]/[.max]), ready for [Xc_trace.Export.to_file] — so the
    time-series lands in the same CSV / Chrome-trace containers as
    event traces, and Chrome renders the counter tracks natively. *)

(** {2 Alert rules}

    Declarative thresholds over the telemetry registry, checked at
    snapshot boundaries: a rule names a metric key ([cat/name]) and an
    [above] and/or [below] bound.  Checking is a {e pure scan} over a
    captured {!telemetry}'s snapshots ({!firings}) — nothing in the
    capture/merge pipeline changes, so alerting never perturbs the
    byte-identical [--jobs] contract.  Counters and gauges test their
    value; histogram metrics test their snapshot p99. *)

type alert_rule = {
  acat : string;
  aname : string;
  above : float option;  (** fire when value > bound *)
  below : float option;  (** fire when value < bound *)
}

val rule_to_string : alert_rule -> string
(** ["cat/name>0.9"] / ["cat/name<5"]. *)

val rule_of_string : string -> (alert_rule, string) result
(** Parse [CAT/NAME>VALUE] or [CAT/NAME<VALUE]. *)

type firing = { rule : alert_rule; at : Time_ns.t; value : float }

val firings : rules:alert_rule list -> telemetry -> firing list
(** Every (rule, snapshot) crossing, in snapshot order then rule
    order.  Pure — same telemetry, same firings, at any job count. *)

val render_firings : firing list -> string
(** One [ALERT key: N snapshot(s), worst V] line per rule that fired,
    in first-firing order; [""] when nothing fired. *)
