(** An event-driven multi-container scheduling simulation.

    The Figure 8 claim — a flat host runqueue of 4N processes loses to
    the X-Kernel's two-level hierarchy (N vCPUs x 4 processes) — is
    priced analytically in {!Xc_apps}'s scalability model.  This module
    makes the same claim {i emerge} from mechanism: it simulates cores,
    runqueues, time slices (1 ms) and per-switch costs directly, with
    requests hopping between the processes of a container (one process
    per stage), and measures throughput and the actual switch counts.

    Two scheduling modes:
    - [Flat]: one global FIFO runqueue of processes; every dispatch that
      changes container pays the cross-container switch cost priced at
      {i every} process the host kernel owns (containers x stages);
    - [Hierarchical]: cores pick a container first (round-robin over
      containers with runnable work; the switch cost is priced at every
      container the hypervisor owns), then run that container's
      processes with cheap intra-container switches.

    Either way the switch-cost population is every entity the scheduler
    owns, not the instantaneously runnable ones: per-task scheduler
    state stays resident whether or not the task is queued.

    The harness cross-validates this simulation against the analytic
    Figure 8 model at small container counts. *)

type mode = Flat | Hierarchical

type fidelity =
  | Exact
      (** every request through the event-driven dispatcher: an
          int-coded kernel over struct-of-arrays state, dispatched by
          {!Dispatch.run} in (time, insertion) order *)
  | Fluid
      (** the whole closed loop solved analytically: one load-dependent
          PS station (the [pcpus] cores) under exact MVA
          ({!Xc_lb.Oracle.closed_loop_mva}), with per-request scheduler
          switch overhead estimated per mode and blended by
          utilization.  One O(min(clients, 4e6)) sweep instead of
          O(events): a 10^6-container node solves in milliseconds.
          Predicts means — [p99_latency_ns] is NaN. *)
  | Mixed of { sample_rate : int }
      (** fluid for the bulk, plus a seeded exact slice of 1 in
          [sample_rate] containers (cores scaled to keep per-core load
          comparable) that still runs the per-request trace-bundle
          machinery: [p99_latency_ns] and `--tail` attribution come
          from the slice, means and utilization from the fluid tier. *)

type config = {
  mode : mode;
  pcpus : int;
  containers : int;
  connections_per_container : int;
  stage_cpu_ns : float array;
      (** CPU bursts of one request; stage [i] runs on process [i] of
          the container, so a container has one process per stage *)
  client_rtt_ns : float;
  container_switch_ns : runnable:int -> float;
  process_switch_ns : float;
  duration_ns : float;
  warmup_ns : float;
  seed : int;
  request_mech : (string * string * float) list array;
      (** When tracing is enabled and this is non-empty, each measured
          request emits a {e bundle}: its [request] span plus synthetic
          mechanism child spans — the two half-RTT [net.hop]s, per
          stage these [(cat, name, ns)] rows laid out serially over the
          window (clamped), and one exact [ctx-switch] row carrying the
          scheduler switch time the request was actually charged
          (per-dispatch switch spans are suppressed in this mode so the
          time is not counted twice).  Bundles are re-based onto a
          sequential lane past the end of the simulated timeline
          (concurrent requests overlap in real time, which would defeat
          exact attribution); durations are untouched.
          Scheduling/queueing delay stays request self-time.  One entry
          per stage.  With the default [[||]] a request span goes on the
          same lane alone, all request self-time, and the per-dispatch
          switch spans stay at simulated time. *)
  lb : Xc_lb.Policy.hedge option;
      (** When set, requests are no longer pinned to their home
          container: on arrival a {!Xc_lb.Policy} (fed the per-backend
          in-flight and queue counts this driver maintains) picks
          [clones] distinct target containers and the request is cloned
          to each.  The first clone through all stages responds to the
          originating client and cancels its siblings at their next
          scheduling point — their remaining stages are refunded, and
          the core time they already burnt is charged to the request as
          hedge overhead (an [lb.hedge]/[clone-xD] row in its trace
          bundle, clamped like every other row).  The policy's probe
          PRNG is seeded from [seed], so traced runs stay deterministic
          at any [--jobs].  [None] changes nothing. *)
}

val default_config : mode -> containers:int -> config
(** 16 cores, 5 connections/container, a 4-stage request (NGINX ->
    PHP-FPM -> opcache -> logger), switch costs from {!Xc_cpu.Costs}. *)

type result = {
  throughput_rps : float;
  mean_latency_ns : float;
  p99_latency_ns : float;
  container_switches : int;
  process_switches : int;
  switch_overhead_ns : float;  (** total core time burnt on switching *)
  busy_fraction : float;
}

val run : config -> result
(** The {!Exact} tier.  Raises [Invalid_argument] naming the field when
    [config] lies outside the envelope: [pcpus >= 1];
    [containers] and [connections_per_container] [>= 0];
    [duration_ns] finite and [> 0]; [warmup_ns], [client_rtt_ns],
    [process_switch_ns], every stage cost and the container switch
    priced at the run's entity population finite and [>= 0];
    [request_mech] empty or one entry per stage; [lb]'s clones in
    [[1, containers]]. *)

val run_fluid : config -> result
(** The {!Fluid} tier: no engine, no entities — exact MVA over the
    closed network plus the per-mode switch-overhead estimate.  Refuses
    a config outside {!run}'s envelope (bar [lb], which it ignores) by
    the same field names.  Within
    a few percent of {!run} on mean latency, throughput and
    utilization across load levels (differential-tested); switch
    {e counts} are regime estimates, not event counts. *)

val run_fidelity : fidelity -> config -> result
(** Dispatch on the tier: {!run}, {!run_fluid}, or the mixed sampled
    slice.  Raises [Invalid_argument] if a {!Mixed} [sample_rate] is
    < 1. *)

val config_of_platform :
  containers:int ->
  connections:int ->
  ?lb:Xc_lb.Policy.hedge ->
  Platform.t ->
  config
(** A Fig 9-style cluster config priced from a {!Platform}: the four
    webdevops container processes (nginx, php-fpm, opcache, logger)
    with stage CPU times decomposed into user / syscall-entry /
    syscall-work on that platform (~160 syscalls per request), the
    scheduling mode from {!Platform.hierarchical_scheduling}, the
    platform's switch costs (pre-priced — [run] never calls back into
    the platform), and [request_mech] filled in so traced runs support
    per-request tail attribution.  Call while tracing is disabled: the
    cost queries themselves emit spans.  [connections] is per
    container: at 5 a hierarchical platform's vCPU saturates and
    queueing delay dominates its tail, at 1 the load is light and the
    cross-platform tail delta isolates the mechanism costs.  The window
    is Figure 9's, 300 ms after 50 ms at seed 17. *)
