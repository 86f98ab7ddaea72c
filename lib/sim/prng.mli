(** Deterministic pseudo-random number generation.

    The simulator must be reproducible: every experiment in the paper is
    re-run with a fixed seed, so two runs of the benchmark harness print
    identical tables.  This module implements SplitMix64, a small,
    well-studied generator with a 64-bit state that passes BigCrush and is
    trivially splittable (each stream can fork independent sub-streams,
    which we use to give every simulated client its own stream). *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] forks an independent generator; [t] advances. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian sample via Box-Muller. *)
