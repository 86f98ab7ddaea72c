(** The guest kernel's runqueue.

    The per-switch cost is supplied by the platform (it depends on
    whether kernel mappings are global, Section 4.3); the runqueue only
    exposes its length, which feeds the runqueue term of the Figure 8
    model.  Scheduling itself is simulated in [Cluster_sim]. *)

type t

val create : unit -> t
val add : t -> Process.t -> unit
val runnable_count : t -> int
