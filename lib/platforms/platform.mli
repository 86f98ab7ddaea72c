(** A composed platform: guest kernel, costs, network path.

    One value of {!t} models a host configured with one container
    runtime.  It owns the guest kernel model (with the right knobs for
    that runtime) and answers the questions the application models ask:
    what does a syscall cost here, what does a process switch cost,
    which network hops does a packet cross. *)

type t

val create : Config.t -> t
val config : t -> Config.t

(** {2 Costs} *)

val syscall_ns : ?coverage:float -> t -> Xc_os.Kernel.op -> float
(** Entry path + in-kernel work for one syscall.  [coverage] is the
    ABOM dynamic coverage for X-Containers (default 1.0: all hot sites
    patched, the common case per Table 1). *)

val syscall_entry_ns : ?coverage:float -> t -> float

val process_switch_ns : t -> float
(** Switch between two processes of the {i same} container. *)

val container_switch_ns : t -> runnable:int -> float
(** Switch between containers ([runnable] = schedulable entities at that
    level: processes for Docker, vCPUs for Xen-family). *)

val hierarchical_scheduling : t -> bool
(** Whether containers are scheduled as vCPUs under a hypervisor credit
    scheduler (two-level hierarchy: Xen-family, X-Containers) rather
    than as host processes on a flat runqueue (Docker, gVisor, Clear).
    Picks the {!Cluster_sim} scheduling mode for this runtime. *)

val llc_pressure_ns : runnable:int -> float
(** The cache-pollution component of a switch: zero below the LLC
    threshold, ramping to the full refill penalty (see
    {!Xc_cpu.Costs.llc_refill_penalty_ns}). *)

val page_fault_ns : t -> float
(** Servicing one minor page fault on this platform. *)

val fork_ns : t -> float
val exec_ns : t -> float

val irq_ns : t -> float
(** Delivering one network interrupt to the container's kernel,
    including the cloud-specific virtio/SR-IOV difference. *)

(** {2 Network} *)

val net_hops : t -> Xc_net.Netpath.hop list
(** Hops from the container's socket to the wire (excluding the wire). *)

val request_net_ns : t -> request_bytes:int -> response_bytes:int -> float
(** Server-side network processing for one request/response exchange. *)

val iperf_chunk_bytes : int
(** TSO chunk size used by the iperf model. *)

val iperf_per_chunk_cpu_ns : t -> float
(** CPU cost to push one TSO chunk through this platform's stack. *)

(** {2 Memory footprint (Figure 8)} *)

val max_instances : t -> host_memory_mb:int -> int
(** How many instances fit (the Figure 8 boot ceiling). *)
