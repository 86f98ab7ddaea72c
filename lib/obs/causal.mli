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

    Baselines run traced ({!with_tracing}); rerun points are plain
    runs.  {!sweep} fans baselines and reruns out over the
    {!Xc_sim.Parallel} shard layer and reassembles in submission
    order, so every artifact is byte-identical at any [--jobs]. *)

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

val with_tracing : ?capacity:int -> (unit -> 'a) -> 'a
(** Run [f] with tracing enabled: a no-op wrapper when tracing is
    already on (sampling and capacity inherited), otherwise enables an
    unsampled ring of [capacity] (default [2^18]) events and disables
    again afterwards (also on exceptions). *)

val tail_at :
  ?label:string -> pct:float -> Xc_trace.Profile.attribution ->
  Xc_trace.Profile.tail option
(** The [pct] tail of an attribution: the cut ([tail.cut_ns]) is
    [Histogram.percentile_floor] over its request totals, and the tail
    holds the requests at or above it.  [None] when no request was
    attributed.  Every tails artifact (the bench [.tails] sidecar,
    [xc --tail]/[--tails]) and {!measure_baseline} cut this way. *)

val measure_baseline : CS.config -> baseline
(** One traced run plus its attribution and critical-path summary.
    Call under {!with_tracing}; with tracing off (or a config without
    [request_mech] pricing) the attribution comes back empty and
    predictions degenerate to the baseline. *)

val predict : baseline -> mech:string -> scale:float -> prediction
(** The linear-share prediction above.  A mechanism with no
    attributed time predicts no change. *)

val run_point :
  target -> mech:string -> scale:float -> (baseline * point, string) result
(** Sequential single point: traced baseline, prediction, re-priced
    rerun.  [Error] if the what-if does not apply to the config. *)

val sweep :
  ?jobs:int ->
  targets:target list ->
  mechs:string list ->
  scales:float list ->
  unit ->
  ((string * baseline) list * point list, string) result
(** The full grid: one traced baseline per target, one rerun per
    (target x mech x scale), all validated up front and fanned out as
    independent pool shards.  Baselines come back in target order,
    points in (target, mech, scale) row-major order — identical at any
    [jobs]. *)

val render_points : point list -> string
(** The predicted-vs-rerun table: throughput and p99 triples per point
    with signed residuals ([100 * (pred - rerun) / rerun]). *)

val points_csv : point list -> string
(** One row per point, fixed-precision floats — byte-identical at any
    [--jobs]. *)

val render_baseline : label:string -> baseline -> string
(** Baseline numbers plus the critical-path share table. *)
