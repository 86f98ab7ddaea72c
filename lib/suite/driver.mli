(** The generic spec interpreter: a {!Spec.t} into the existing
    [Closed_loop]/[Open_loop]/[Cluster_sim] engines.

    Closed specs build exactly the bench macro-sweep cell
    ([Closed_loop.default_config] overridden by the spec's typed
    fields, a [Figures.server_for_public] server), so a spec-driven
    run and the hand-coded driver are byte-identical by construction.
    Open specs offer [rate] x the server's own capacity (4 units at
    the workload recipe's deterministic service time).  Cluster specs
    run [nodes] independent nodes seeded [seed + i] at the requested
    fidelity tier. *)

type row = {
  spec : Spec.t;
  throughput_rps : float;
  mean_ns : float;
  p50_ns : float;  (** NaN for cluster shapes (no per-request p50) *)
  p99_ns : float;  (** NaN on the fluid tier *)
}

val closed_result : Spec.t -> Xc_platforms.Closed_loop.result
val open_result : Spec.t -> Xc_platforms.Open_loop.result

val run : Spec.t -> row
(** Dispatch on the spec's shape; cluster rows aggregate node results
    (throughput sums, means average, p99 is the worst non-NaN). *)

val wants_trace : Suite.t -> bool
(** Any spec asks for [trace] or [tails] capture. *)

val wants_timeseries : Suite.t -> bool

val sample_stride : Suite.t -> int
(** Largest requested sampling stride (>= 1). *)

val interval_us : Suite.t -> int
(** Smallest positive requested snapshot cadence; 50 if none. *)

val render : row list -> string
val csv : row list -> string
