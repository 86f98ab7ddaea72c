(** The queueing kernel under {!Closed_loop} and {!Open_loop}.

    One station: a pool of FIFO service units, where each request takes
    the unit that frees up first, fed either by a closed population
    (each connection keeps one request outstanding) or by Poisson
    arrivals.  Its events are int codes into struct-of-arrays request
    state, dispatched in (time, insertion sequence) order from one
    {!Xc_sim.Heap} — the same order {!Xc_sim.Engine} runs — so the
    per-event path allocates no closure, option or tuple.

    Every dispatch is credited to {!Xc_sim.Engine.domain_events}, and
    telemetry boundaries are sampled before each clock advance, as the
    engine does.  An event time in the past or NaN raises
    [Invalid_argument] naming [Station.run]. *)

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

(** {1 The bundle lane}

    A traced kernel re-bases each measured request onto a sequential
    lane past the end of the simulated timeline and lays its mechanism
    rows out serially inside the request's window, so
    [Xc_trace.Profile.attribute] partitions it exactly.  [lane] is a
    two-cell array: the next row's start, and the end no row may pass.
    Both the station and the cluster kernel ({!Cluster_sim}) lay their
    rows through these. *)

val lay_row : float array -> string -> string -> float -> unit
(** [lay_row lane cat name ns] records a [cat]/[name] span at
    [lane.(0)], of [ns] clamped so that it ends by [lane.(1)], and
    moves [lane.(0)] to its end.  A row clamped to nothing is
    skipped. *)

val lay_rows : float array -> (string * string * float) list -> unit
(** {!lay_row} over [(cat, name, ns)] rows, in order. *)
