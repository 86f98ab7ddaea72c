(** The NGINX web-server model.

    NGINX is event-driven: one worker process serves many connections
    through an epoll loop.  The paper drives it with Apache [ab] in
    Figure 3 (no keep-alive: full connection per request) and with [wrk]
    in Figures 6, 8 and 9 (keep-alive).  ABOM converts 92.3% of its
    dynamic syscalls (Table 1). *)

val static_request_ab : Recipe.t
(** One static-page request over a fresh connection (accept + teardown),
    as the [ab] benchmark of Figure 3 generates. *)

val static_request_wrk : Recipe.t
(** One keep-alive request, as [wrk] generates (Figures 6, 9). *)

val server :
  ?workers:int ->
  ?keepalive:bool ->
  cores:int ->
  Xc_platforms.Platform.t ->
  Xc_platforms.Closed_loop.server
(** A closed-loop server description: service units =
    min(workers, cores) since each worker is single-threaded. *)
