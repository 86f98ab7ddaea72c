(** Causal what-if profiling: predicted vs rerun virtual speedups.

    A hardware causal profiler (Coz) must {e approximate} "what would
    making X faster buy" by slowing everything else down.  This is a
    simulator with an explicit cost model, so both halves are exact:

    + {b predict} from the baseline's attribution — if mechanism [m]
      costs [c] ns of an [E[R]]-ns request on average, scaling it by
      [s] predicts [E[R'] = E[R] + (s-1)c], and the closed loop
      ([N] clients, zero think time — the cluster client fires the
      next request on response) pins throughput to [X' = N/E[R'] =
      X * E[R]/E[R']].  The p99 prediction shifts the baseline p99 by
      the mechanism's mean share of the {e tail} requests (the
      attribution above the p99 cut).
    + {b rerun} the simulation with the mechanism actually re-priced
      ({!Whatif.apply_cluster}).

    The residual between the two is the experiment's finding: linear
    attribution cannot see queueing amplification, so off the
    scheduling knee (light load, [--connections 1]) prediction lands
    within a few percent of the rerun, while at the knee
    ([--connections 5]) the rerun moves further than the share says —
    exactly the regime where the fig9 tail is queueing-dominated.

    Baselines run traced, each capturing its own trace: {!sweep_points}
    turns a {!Xc_trace.Trace.default_capacity} ring on around them when
    tracing is off, and inherits the caller's sampling and capacity
    when it is on.  It fans the baselines, then the reruns, out over
    the {!Xc_sim.Parallel} pool and reassembles in submission order, so
    every artifact is byte-identical at any [--jobs].  The reruns are
    traced only when the caller traces, and then they record into the
    caller's capture, so such a caller passes [~jobs:1]. *)

module CS = Xc_platforms.Cluster_sim

type target = { label : string; config : CS.config }
(** A priced platform point ({!CS.config_of_platform} — price before
    tracing) under a display label. *)

type baseline = {
  base : CS.result;
  n_requests : int;  (** attributed requests in the traced window *)
  p99_cut_ns : float;  (** the tail cut used for [mech_tail_mean] *)
  path : Critical_path.summary;
  mech_mean : (string * float) list;
      (** mean attributed ns per request, per mechanism category *)
  mech_tail_mean : (string * float) list;
      (** mean attributed ns per {e tail} request (>= p99 cut) *)
}

type prediction = {
  pred_tput : float;
  pred_mean_ns : float;
  pred_p99_ns : float;
}

type point = {
  pt_label : string;
  pt_mech : string;
  pt_scale : float;
  pt_base : CS.result;
  pt_pred : prediction;
  pt_rerun : CS.result;
}

val tail_at :
  label:string -> pct:float -> Xc_trace.Trace.captured ->
  (Xc_trace.Profile.tail option, string) result
(** The [pct] tail of a captured track: the cut ([tail.cut_ns]) is
    [Histogram.percentile_floor] over its request totals, and the tail
    holds the requests at or above it.  [Ok None] when no request was
    attributed.  [Error] names the track and its drop count when the
    capture holds requests but its ring dropped events: the request
    population is truncated, so any cut over it would be silently
    wrong.  Every tails artifact and tail table (the bench [.tails]
    sidecar, [xc --tail]/[--tails]) and every causal baseline cuts
    this way. *)

val sweep_points :
  jobs:int ->
  (string * target * string * float) list ->
  ((string * baseline) list * point list, string) result
(** The causal sweep over explicit [(label, target, mech, scale)]
    points: one traced baseline (run, attribution, critical path) per
    distinct target (by label), one re-priced rerun and linear-share
    prediction per point, every what-if validated before anything runs
    and all of it fanned out as independent pool shards (baselines
    first, then reruns).  A config
    without [request_mech] pricing attributes nothing, so its
    predictions are the baseline; so does a mechanism with no
    attributed time.
    Baselines come back in first-use order, points in the given order
    under their own labels — identical at any [jobs].  [Error] names
    the point whose what-if does not apply, or the baseline whose
    capture dropped events. *)

val sweep :
  jobs:int ->
  targets:target list ->
  mechs:string list ->
  scales:float list ->
  ((string * baseline) list * point list, string) result
(** {!sweep_points} over the (target x mech x scale) cross product, in
    row-major order, each point labelled by its target. *)

val render_points : point list -> string
(** The predicted-vs-rerun table: throughput and p99 triples per point
    with signed residuals ([100 * (pred - rerun) / rerun]). *)

val points_csv : point list -> string
(** One row per point, fixed-precision floats — byte-identical at any
    [--jobs]. *)

val render_baseline : label:string -> baseline -> string
(** Baseline numbers plus the critical-path share table. *)
