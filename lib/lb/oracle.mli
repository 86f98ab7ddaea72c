(** Closed-form processor-sharing predictions for request cloning.

    From the Modeling-of-Request-Cloning reproducibility report
    (PAPERS.md): under {e synchronized service} — every clone of a
    request has the same service requirement, progresses at its
    server's PS share, and the first completion cancels the siblings —
    a cluster of [n] PS servers tiled into [n/d] sub-clusters of size
    [d], each Poisson arrival cloned to every server of one uniformly
    chosen sub-cluster, is {e exactly} equivalent to [n/d] independent
    M/G/1-PS servers fed at rate [lambda * d / n].  All clones of a
    set see identical populations, progress in lockstep and finish
    together, so the sub-cluster behaves as one PS server.

    Hence the mean response time

    {v E[T] = E[S] / (1 - rho_eff),   rho_eff = d * lambda * E[S] / n v}

    valid for [rho_eff < 1]; PS insensitivity makes it hold for any
    service distribution with that mean.  At [d = 1] this degenerates
    to plain M/PS over [n] balanced servers.  {!Hedge.run} with
    [dispatch = Subcluster] simulates exactly this system, which is
    what the differential tests compare against. *)

val mps_mean_ns : service_mean_ns:float -> rho:float -> float
(** Plain M/PS mean response time [E[S] / (1 - rho)].  Raises
    [Invalid_argument] unless [0 <= rho < 1]. *)

val effective_utilization :
  backends:int ->
  clones:int ->
  arrival_rate_per_ns:float ->
  service_mean_ns:float ->
  float
(** [d * lambda * E[S] / n] — the per-server load including clones. *)

val cloned_mean_ns :
  backends:int ->
  clones:int ->
  arrival_rate_per_ns:float ->
  service_mean_ns:float ->
  float
(** Mean response time of the cloned system.  Raises
    [Invalid_argument] when [clones] does not divide [backends] (the
    sub-cluster equivalence needs the tiling), when [clones] is outside
    [\[1, backends\]], or when the effective utilization is >= 1. *)

val arrival_rate_for :
  backends:int -> clones:int -> service_mean_ns:float -> utilization:float -> float
(** Inverse of {!effective_utilization}: the Poisson arrival rate (per
    ns) that loads each server to [utilization]. *)

(** {1 Closed-network mean-value analysis}

    The fluid fidelity tier of {!Xc_platforms.Cluster_sim} models a
    node as one load-dependent PS station ([servers] cores, mean
    per-request demand [service_ns]) driven by [clients] closed-loop
    customers whose only think time is the client RTT.  {!
    closed_loop_mva} solves that network exactly. *)

type closed_loop = {
  mean_ns : float;  (** mean request latency, think time included: Z + R *)
  throughput_per_ns : float;  (** X, requests per simulated ns *)
  utilization : float;  (** X * S / c, clamped to 1 *)
  steps : int;  (** recursion steps burnt *)
}

val closed_loop_mva :
  servers:int -> clients:int -> service_ns:float -> think_ns:float -> closed_loop
(** Exact steady state of the machine-repairman birth-death chain
    (lambda(j) = (M-j)/Z, mu(j) = min(j,c)/S) in one numerically
    stable O(min(M, 4M)) forward sweep with on-the-fly rescaling — the
    textbook load-dependent MVA recursion loses normalisation to
    catastrophic cancellation by a few hundred customers at cluster
    loads, so it is not used.  Past the 4-million-customer cap the
    saturation asymptote [R = max(R(cap), M*S/c - Z)] takes over
    (exact in the limit — the station is pinned at [X = c/S] and
    Little's law fixes the rest).  Raises [Invalid_argument] on
    non-positive [servers]/[clients]/[service_ns] or negative/
    non-finite [think_ns]. *)
