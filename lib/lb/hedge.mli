(** Event-driven processor-sharing cluster with request cloning.

    [n] backends, each an exact PS server (every resident clone
    progresses at rate [1 / population]); Poisson arrivals; each
    request is cloned to [clones] distinct backends with {e
    synchronized service} (every clone carries the same sampled
    requirement) and {e cancel-on-first-complete}: the moment one clone
    accumulates its full requirement, the siblings are cancelled and
    their remaining work is refunded to their backend's PS share (they
    simply leave; the capacity they would have consumed goes back to
    the residents).

    The simulation advances between exact event times (arrivals and
    first-clone completions), so work accounting is exact up to float
    rounding — {!result} exposes the conservation identities the QCheck
    suite asserts:

    - [busy_ns = winner_service_ns + cancelled_work_ns] (arrivals stop
      at the end of the window and the system drains, so nothing is
      left resident), and
    - [cancelled_work_ns + refunded_ns = (clones - 1) * winner_service_ns]
      (each sibling's work splits exactly into done-before-cancel plus
      refund).

    With [dispatch = Subcluster] the system is the one {!Oracle} solves
    in closed form; the differential tests check convergence to within
    a few percent.  With [dispatch = Policy k] clone sets go where the
    policy says, which is what the [xc lb sweep] comparison table
    measures. *)

type dispatch =
  | Subcluster
      (** clone to every backend of one uniformly-random sub-cluster of
          size [clones] ([clones] must divide [backends]) — the
          {!Oracle}-exact reference system *)
  | Policy of Policy.kind
      (** clone set chosen by {!Policy.pick_set}.  A PS server has no
          separate wait queue, so the residents are fed to the policy
          as both in-flight and queued counts — JSQ observes the
          resident population rather than a constant zero. *)

type config = {
  backends : int;
  clones : int;
  dispatch : dispatch;
  arrival_rate_per_ns : float;  (** Poisson arrival rate of requests *)
  service_mean_ns : float;  (** exponential service requirement mean *)
  duration_ns : float;  (** measured arrival window after warmup *)
  warmup_ns : float;
  seed : int;
}

val default_config : config
(** 6 backends, no cloning, subcluster dispatch, 200us mean service at
    60% utilization, 3e8 ns window. *)

val config_for_utilization :
  ?backends:int ->
  ?clones:int ->
  ?dispatch:dispatch ->
  ?seed:int ->
  ?duration_ns:float ->
  utilization:float ->
  unit ->
  config
(** {!default_config} with the arrival rate set so each backend runs at
    [utilization] (clones included) — see {!Oracle.arrival_rate_for}. *)

type result = {
  completed : int;  (** requests that arrived inside the window *)
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  winner_service_ns : float;  (** sum of winning clones' requirements *)
  cancelled_work_ns : float;  (** work siblings did before cancellation *)
  refunded_ns : float;  (** work refunded to PS shares at cancellation *)
  busy_ns : float;  (** total non-idle backend time, whole run *)
  clones_spawned : int;
  clones_cancelled : int;
}

val run : config -> result
(** Deterministic in [config] (all randomness from [seed]).  Raises
    [Invalid_argument] on a bad shape ([clones] outside
    [\[1, backends\]], a non-dividing [clones] under [Subcluster], or
    an unstable load). *)
