(** The Kernel Compilation workload (Table 1's "Linux kernel with tiny
    config").

    The counterpoint workload: compilation is fork/exec/process-churn
    heavy — exactly where X-Containers pay the PV page-table tax
    (Section 5.4) — while its syscalls are mostly file I/O that ABOM
    converts at 95.3%.  The build model spawns one compiler process per
    translation unit through the platform's fork/exec, with file reads
    and writes per unit. *)

val abom_coverage : float

val build_ns : ?units:int -> ?jobs:int -> Xc_platforms.Platform.t -> float
(** Wall time of a [make -j jobs] build of [units] translation units
    (default: 600 units — a tiny-config kernel — on 8 jobs). *)

val relative_to_docker : Xc_platforms.Platform.t -> float
(** Build throughput relative to patched Docker (the Figure 5 Execl and
    Process Creation story, composed into one realistic workload). *)
