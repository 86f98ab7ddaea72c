(** The Redis model.

    redis-benchmark drives a single-threaded event loop; commands do more
    user-space work per operation than memcached (object encoding, RESP
    protocol) and use fewer syscalls, so the platforms' syscall-path
    differences compress — the paper finds X-Containers roughly on par
    with Docker here (Figure 3, "comparable ... with stronger
    isolation").  ABOM coverage is 100% (Table 1). *)

val request : Recipe.t

val server : cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
(** Single-threaded: one service unit regardless of cores. *)
