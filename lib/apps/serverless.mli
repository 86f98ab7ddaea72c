(** The LibOS comparison of Section 5.5 (Figure 6).

    Three experiments on the local cluster (16 cores, 10 GbE, no Meltdown
    patches): NGINX with one worker on a dedicated core, NGINX with four
    workers, and two PHP CGI servers backed by MySQL in the three
    topologies of Figure 7 (shared DB, dedicated DBs, and — X-Containers
    only — PHP and MySQL merged into one container). *)

type contender = G | U | X  (** Graphene, Unikernel, X-Container *)

val contender_name : contender -> string

val nginx_one_worker : contender -> float
(** Requests/second, one worker on one dedicated core (Figure 6a). *)

val nginx_four_workers : contender -> float option
(** Figure 6b; [None] for Unikernel (single-process only). *)

type db_topology = Shared | Dedicated | Dedicated_merged

val topology_name : db_topology -> string

val php_mysql : contender -> db_topology -> float option
(** Total requests/second of the two PHP servers (Figure 6c); [None] for
    unsupported combinations (Graphene cannot run the PHP CGI server;
    merging requires multi-process support, so not Unikernel). *)
