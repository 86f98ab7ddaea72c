(** The bench's experiments, one per {!Xcontainers.Inventory.all} id,
    plus the smoke variants.

    Each builds a {!Run.report} of typed tables and note lines.  The
    bench prints it, [bench csv] writes its tables, and the
    per-experiment [xc] commands print it with their own flags. *)

val bench : unit -> (string * Run.cells) list
(** Every inventory experiment, in inventory order.  Building the list
    prices the hedging, cluster-scale and causal configs, so build it
    before tracing is enabled: traced runs then capture only the
    simulations' own spans. *)

val smoke : unit -> (string * Run.cells) list
(** The inventory experiments cheap enough to run unchanged, then the
    tiny-duration variants ([table1-smoke], [macro-smoke], ...). *)

(** {1 Reports the [xc] commands print} *)

val boot : unit -> Run.report
(** Section 4.5's instantiation times. *)

val security : unit -> Run.report
(** TCB and attack surface per platform. *)

val clone : memory_mb:int -> resident_pages:int -> Run.report
(** Cold boot vs cloning a [memory_mb] guest that copies
    [resident_pages] hot pages eagerly; the bench runs 128 MB and 2048
    pages. *)

val coldstart : rates:float list -> Run.report
(** Serverless cold starts by spawn path, one table per arrival rate;
    the bench runs 0.02, 0.05 and 0.5 invocations/s. *)

val platforms : unit -> Run.report
(** The capability matrix of Section 2.3, one row per runtime. *)

val syscall_costs : cloud:Xc_platforms.Config.cloud -> meltdown_patched:bool -> Run.report
(** The calibrated per-platform costs on [cloud]. *)

(** {1 Cells the [xc] commands run}

    Each shares its cell builder with a bench experiment that runs the
    same simulations. *)

val sweep : counts:int list -> duration_ms:float -> Run.cells
(** [fig8sim]'s scheduler points: one cell per (count, flat or
    hierarchical) over a [duration_ms] window. *)

val lb_sweep :
  backends:int -> clones:int -> dispatch:Xc_lb.Hedge.dispatch -> seed:int ->
  duration_ms:float -> utilizations:float list -> Run.cells
(** [hedging]'s PS cloning points, one cell per utilization: the
    simulation against the random sub-cluster closed form, ["-"] where
    the clones do not tile the backends. *)

val cluster : Spec.t -> Run.cells
(** One cell per node of a cluster spec at its fidelity tier, reported
    as the node table (up to 8 nodes) and the {!Driver.cluster_row}
    total. *)

type race_row = {
  combo : (Xc_lb.Policy.kind * int) option;  (** [None] for the home-pinned baseline *)
  config : Xc_platforms.Cluster_sim.config;
  r : Xc_platforms.Cluster_sim.result;
}

val race : Spec.t -> (Xc_lb.Policy.kind * int) list -> (unit -> race_row) list
(** [hedging]'s Fig 9 policy race: the spec's cluster node, priced now,
    run home-pinned and then routed by each (kind, clones) combo, one
    cell each, baseline first. *)

val race_report : Spec.t -> race_row list -> Run.report * race_row
(** The race table and the winner line; the winner is the combo with
    the lowest p99, the first of equals. *)
