(** Virtual-speedup axes: scale one named mechanism's cost.

    A what-if is [(mech, scale)] — e.g. [syscall-entry x0.7] means
    "syscall entry costs 70% of what the platform prices today".  The
    mechanism vocabulary is the tracer's span categories, so a what-if
    names exactly the rows that {!Xc_trace.Profile.attribute} and
    {!Critical_path} blame.

    Scaling is applied to {e priced} cost structures — recipe
    mechanism rows, or a {!Xc_platforms.Cluster_sim.config} built by
    [config_of_platform] — never by calling back into the platform.  A
    mechanism the structure carries no rows for scales a zero cost:
    the application is a no-op by definition (scaling what costs
    nothing changes nothing), except that an {e unpriced} cluster
    config (empty [request_mech]) is rejected outright. *)

type t = { mech : string; scale : float }

val mechanisms : string list
(** The scalable mechanism vocabulary: [cpu], [syscall-entry],
    [syscall-work], [ctx-switch], [irq], [net.hop]. *)

val validate : mech:string -> scale:float -> (unit, string) result
(** Known mechanism; finite scale in [0, {!max_scale}]. *)

val to_string : t -> string
(** Canonical form, e.g. ["syscall-entry x0.7"]. *)

val scale_rows :
  t -> (string * string * float) list -> (string * string * float) list
(** Scale the [ns] of every [(cat, name, ns)] row whose [cat] matches
    — the recipe/[request_mech] row shape. *)

val apply_cluster :
  t ->
  Xc_platforms.Cluster_sim.config ->
  (Xc_platforms.Cluster_sim.config, string) result
(** Re-price a cluster config under the what-if: [cpu]/[syscall-*]
    scale the matching [request_mech] rows (and re-derive
    [stage_cpu_ns] as their sums, the same fold [config_of_platform]
    uses — scale [1.] is the identity, byte for byte); [ctx-switch]
    scales both switch-cost closures; [net.hop] scales
    [client_rtt_ns].  Errors: unknown mechanism, or a row-scaled
    mechanism on a config with no [request_mech] pricing. *)

val apply_cluster_all :
  (string * float) list ->
  Xc_platforms.Cluster_sim.config ->
  (Xc_platforms.Cluster_sim.config, string) result
(** Left fold of {!apply_cluster} over [(mech, scale)] pairs. *)
