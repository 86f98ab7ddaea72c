(** The Fluentd model (Table 1: Ruby, fluentd-benchmark, 99.4%).

    A log collector: batches of events arrive over TCP, get parsed and
    buffered, and flush to disk in chunks.  Like NGINX it can run a
    process pool for concurrency (Section 2.2).  Ruby's VM does notable
    user-space work per event; a sliver of its syscalls sit behind
    runtime wrappers the online patcher does not recognise. *)

val steady_state : Recipe.t
(** The benchmark's steady state: a 100-event batch with the amortised
    share of flushing folded in. *)

val server :
  cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
(** A two-worker process pool, capped at [cores]. *)
