(** Open-loop benchmark driver (Poisson arrivals).

    Closed-loop clients (wrk/ab) hide queueing: they slow down when the
    server does.  Serverless front-ends face open arrivals, where latency
    explodes as load approaches capacity.  This driver offers requests at
    a fixed rate regardless of completions, producing the
    latency-versus-load curves used by the latency ablation bench. *)

type config = {
  arrival_rate_rps : float;
  duration_ns : float;
  warmup_ns : float;
  seed : int;
}

val config :
  ?duration_ns:float -> ?warmup_ns:float -> ?seed:int -> rate_rps:float -> unit ->
  config

type result = {
  offered_rps : float;
  completed_rps : float;
  mean_latency_ns : float;
  p50_ns : float;
  p99_ns : float;
  max_queue : int;
      (** high-water mark of requests in the system: those queued and
          those in service *)
}

val run : config -> Closed_loop.server -> result
(** A {!Station} fed by Poisson arrivals: each request takes one
    service sample on the unit that frees up first, FIFO.  Raises
    [Invalid_argument "Open_loop.run: rate"] unless [arrival_rate_rps]
    is finite and [> 0]. *)
