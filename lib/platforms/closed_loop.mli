(** Closed-loop benchmark driver (wrk/ab/memtier-style).

    [connections] clients each keep exactly one request outstanding: send,
    wait for the response, immediately send again — the loop wrk and ab
    run.  The server side is a pool of service units (min(workers, cores)
    for process-per-request servers, 1 for single-threaded event loops),
    each serving FIFO; a request takes the unit that frees up first. *)

type server = Station.server = {
  units : int;  (** parallel service units *)
  base_ns : float;  (** service time, platform costs included *)
  stddev : float;
      (** each request's service time is [base_ns] times a normal
          jitter factor of mean 1 and this standard deviation, floored
          at [floor]; [0.] serves exactly [base_ns] and draws nothing *)
  floor : float;
}

type config = {
  connections : int;
  rtt_ns : float;  (** client-to-server round trip (network + client) *)
  duration_ns : float;
  warmup_ns : float;
  seed : int;
  trace_mechanisms : (string * string * float) list;
      (** When tracing is enabled and this is non-empty, each measured
          request emits a {e bundle}: its [request] span plus synthetic
          mechanism child spans — the two half-RTT [net.hop]s, a
          [sched]/queue-wait span when the request queued, and these
          [(cat, name, ns)] rows laid out serially over the service
          window (clamped to the sampled service time).  Bundles are
          re-based onto a sequential lane past the end of the simulated
          timeline (concurrent requests overlap in real time, which
          would defeat exact attribution); durations and the internal
          geometry are preserved exactly.  Build the rows with
          [Xc_apps.Recipe.mechanisms] {e before} enabling tracing.  With
          the default [[]] a request span goes on the same lane alone,
          all request self-time. *)
}

val default_config : config
(** 32 connections, LAN RTT, 2s simulated measurement after 0.2s warmup. *)

type result = {
  throughput_rps : float;
  mean_latency_ns : float;
  p50_ns : float;
  p99_ns : float;
  completed : int;
}

val run : config -> server -> result
(** A {!Station} fed by [connections] clients, each staggered by a
    uniform draw in [\[0, 1 ms)] before its first send. *)
