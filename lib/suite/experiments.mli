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
