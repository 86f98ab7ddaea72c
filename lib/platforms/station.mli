(** The queueing kernel under {!Closed_loop} and {!Open_loop}.

    One station: a pool of FIFO service units, where each request takes
    the unit that frees up first, fed either by a closed population
    (each connection keeps one request outstanding) or by Poisson
    arrivals.  Its events are int codes into struct-of-arrays request
    state, dispatched by {!Dispatch.run} in (time, insertion sequence)
    order, so the per-event path allocates no closure, option or tuple.
    Its measured requests are {!Dispatch.complete}'s, and a traced
    closed loop lays its bundles on a {!Dispatch.lane}.

    An event time in the past or NaN raises [Invalid_argument] naming
    [Station.run]. *)

type server = {
  units : int;  (** parallel service units *)
  base_ns : float;  (** service time, platform costs included *)
  stddev : float;
      (** each request's service time is [base_ns] times a normal
          jitter factor of mean 1 and this standard deviation, floored
          at [floor]; [0.] serves exactly [base_ns] and draws nothing *)
  floor : float;
}

type population =
  | Closed of {
      connections : int;
      rtt_ns : float;
      mechanisms : (string * string * float) list;
          (** the closed loop's trace bundle rows
              ([Closed_loop.config.trace_mechanisms]) *)
    }
  | Poisson of { rate_rps : float }

type result = {
  completed : int;
      (** requests both sent and completed inside the measurement
          window *)
  latencies : Xc_sim.Histogram.t;  (** their latencies *)
  max_in_system : int;
      (** Poisson only: high-water mark of requests in the system,
          those in service included; [0] for a closed population *)
}

val run :
  warmup_ns:float -> duration_ns:float -> seed:int -> population -> server -> result
(** Run until no event is left.  A closed connection stops sending,
    and Poisson arrivals stop, once the clock reaches
    [warmup_ns + duration_ns]; requests in flight then still drain. *)
