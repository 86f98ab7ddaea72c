(** The RabbitMQ model (Table 1: Erlang, rabbitmq-perf-test, 98.6%).

    A message broker: each published message is routed and delivered to a
    consumer — two socket legs per message — with optional persistence.
    The Erlang VM's schedulers do more user-space work per message and a
    small fraction of its syscall sites sit behind the runtime's own
    wrappers where ABOM's patterns do not apply (the 1.4% residue). *)

val publish_transient : Recipe.t

val server :
  cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
