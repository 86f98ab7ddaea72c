(** The exokernel: the X-Kernel, a modified Xen.

    It hosts Domain-0 and one Domain-U per X-Container, and gates their
    creation on host memory.  Its ABI changes (Sections 4.2/4.3: syscall
    forwarding without a page-table switch, global kernel mappings,
    direct event delivery, user-mode iret) are priced per platform by
    [Xc_platforms.Syscall_path] from [Xc_cpu.Costs]. *)

type t

val create : pcpus:int -> memory_mb:int -> unit -> t
(** A host with a Dom0 (1 GB, created implicitly). *)

val free_memory_mb : t -> int
val dom0 : t -> Domain.t

val create_domain :
  t -> vcpus:int -> memory_mb:int -> (Domain.t, string) result
(** Fails when memory is exhausted — this is the gate that stops Xen PV
    at ~250 and Xen HVM at ~200 instances in Figure 8. *)

val destroy_domain : t -> Domain.t -> unit

val linux_host_tcb_kloc : int
(** A monolithic Linux host kernel: ~17,000 kLoC of trusted computing
    base, against Xen's ~270 kLoC (the Section 3.4 argument). *)

val linux_host_syscall_surface : int
