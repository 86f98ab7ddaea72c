(** The paper's workload generators, as data.

    Section 5 names its client tools: Apache [ab] for NGINX (Figure 3),
    [memtier_benchmark] with a 1:10 SET:GET ratio for memcached/Redis,
    [redis-benchmark], [wrk] for the LibOS and scalability experiments,
    and [iperf] for raw TCP.  Each description pairs the closed-loop
    configuration the generator induces with its documented behaviour,
    so experiments reference generators by name instead of magic
    numbers. *)

type t = {
  name : string;
  tool : string;  (** the real-world client *)
  connections : int;
  keepalive : bool;
  set_get_ratio : (int * int) option;  (** memtier-style mix *)
  notes : string;
}

val ab : t
(** Apache ab: 100 concurrent connections, no keep-alive (a fresh TCP
    connection per request — the Figure 3 NGINX driver). *)

val memtier : t
(** memtier_benchmark: many connections, 1:10 SET:GET. *)

val redis_bench : t

val closed_loop_config :
  ?duration_ns:float -> ?seed:int -> t -> Xc_platforms.Closed_loop.config
(** The closed-loop driver configuration this generator induces. *)
