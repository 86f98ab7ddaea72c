(** The calibrated cost model.

    Every architectural event the simulation accounts for has one named
    nanosecond constant here.  The constants are calibrated against
    published measurements of 2017-2018 era Xeons (the paper's testbeds:
    EC2 c4.2xlarge and a GCE custom instance, both Haswell/Skylake class)
    and against the paper's own qualitative statements.  The reproduced
    figures' {i shapes} — who wins, by what factor, where crossovers sit —
    follow from the relationships between these constants; the test suite
    pins the relationships (see {!validate}), not the absolute values.

    Key anchor points:
    - a patched (KPTI) Docker syscall costs ~27x an X-Container's
      function-call syscall (the paper's headline 27x, Figure 4);
    - gVisor's ptrace interception costs ~10-13x a plain syscall, putting
      its syscall throughput at 7-9% of Docker's (Section 5.4);
    - Clear Containers' stripped-down guest kernel handles syscalls
      faster than stock Linux but ~1.6x slower than X-Containers;
    - Xen PV on x86-64 forwards every syscall through the hypervisor with
      an address-space switch and TLB flush each way (Section 4.1). *)

(** {2 Base machine} *)

val cache_line_refill_ns : float

(** {2 Mode switches and system calls} *)

val function_call_ns : float
(** Plain call/ret pair. *)

val xc_fast_syscall_ns : float
(** X-Container syscall after ABOM patching: call through the vsyscall
    entry table, switch to the kernel stack, dispatch.  No mode switch. *)

val xc_forwarded_syscall_ns : float
(** X-Container syscall {i before} patching (or unpatchable site): traps
    to the X-Kernel, which immediately bounces to X-LibOS — no address
    space switch, unlike stock Xen PV. *)

val syscall_trap_ns : float
(** Native syscall/sysret round trip plus kernel entry path, stock
    Linux, no Meltdown patch. *)

val cheap_syscall_work_ns : float
(** In-kernel work of a trivial syscall (getpid class). *)

val seccomp_audit_ns : float
(** Docker's per-syscall seccomp/audit/cgroup filtering on the host. *)

val kpti_transition_ns : float
(** One CR3 write of the Meltdown patch; a syscall performs two. *)

val kpti_tlb_side_ns : float
(** Amortised TLB refill cost caused by each patched syscall. *)

val clear_guest_syscall_ns : float
(** Syscall inside a Clear Container: the guest kernel is minimal,
    security features disabled, never patched. *)

val gvisor_syscall_ns : float
(** gVisor (ptrace platform): each syscall is intercepted by the Sentry
    via ptrace — multiple host context switches. *)

val xen_pv_syscall_ns : float
(** Stock Xen PV on x86-64: trap to Xen, virtual exception into the guest
    kernel in a different address space: page-table switch and TLB flush
    each way (Section 4.1). *)

val xen_xpti_extra_ns : float
(** Extra cost when the Xen Meltdown patch (XPTI) is applied. *)

(** {2 Interrupts and events} *)

val interrupt_delivery_ns : float
(** Hardware interrupt delivery through the kernel. *)

val xen_event_channel_ns : float
(** Xen PV event delivery via hypercall. *)

val xc_event_direct_ns : float
(** X-Container event delivery: X-LibOS emulates the interrupt stack
    frame in user mode, no trap (Section 4.2). *)

val iret_hypercall_ns : float
(** Xen PV iret hypercall. *)

val xc_iret_ns : float
(** X-Container iret: implemented entirely in user mode. *)

(** {2 Hypervisor} *)

val hypercall_ns : float
val nested_vmexit_ns : float
(** VM exit under nested hardware virtualization (Clear on GCE). *)

val vmexit_ns : float
(** First-level VM exit. *)

val pv_mmu_update_ns : float
(** One validated PV MMU update batch (page-table write via X-Kernel). *)

val pv_validation_per_entry_ns : float
(** Hypervisor validation of one page-table entry in a batch. *)

val pv_mmu_batch_entries : int
(** Entries per mmu_update hypercall batch. *)

(** {2 Scheduling and processes} *)

val context_switch_base_ns : float
(** Fixed cost: register state, scheduler bookkeeping. *)

val pv_context_switch_extra_ns : float
(** Extra cost of a process switch inside any Xen PV-family guest: the
    page-table base switch, validation and vCPU accounting are hypercalls
    (the Section 5.4 "noticeable overhead" of X-Containers in context
    switching and process creation). *)

val cr3_switch_ns : float
val tlb_refill_user_ns : float
(** Refill of the user working set after a CR3 switch. *)

val tlb_refill_kernel_ns : float
(** Extra refill when kernel mappings are {i not} global (stock Xen PV
    guests; avoided by X-LibOS's global-bit mappings, Section 4.3). *)

val runqueue_ns_per_task : float
(** Per-switch scheduler bookkeeping and cache pollution proportional to
    the number of runnable tasks at that scheduling level: picking among
    1600 hot processes costs real microseconds in cache refills.  This
    slope is what makes the flat Docker runqueue (4N tasks) lose to the
    two-level X-Kernel hierarchy (N vCPUs of 4 tasks) in Figure 8. *)

val llc_pressure_threshold_tasks : int
(** Runnable-task count at one scheduling level beyond which the combined
    working set overwhelms the last-level cache and every switch starts
    paying a partial refill. *)

val llc_pressure_full_tasks : int
(** Task count at which the refill penalty saturates. *)

val llc_refill_penalty_ns : float
(** The saturated per-switch refill penalty.  Only flat schedulers ever
    reach it: the X-Kernel hierarchy keeps both levels small. *)

val fork_base_ns : float
val fork_per_page_ns : float
val exec_base_ns : float
val process_pages : int
(** Typical resident pages of a small benchmark process. *)

(** {2 Network} *)

val netdev_xmit_ns : float
(** Native per-packet transmit/receive path in the kernel. *)

val bridge_hop_ns : float
(** iptables port-forwarding hop (the clouds' NAT setup, Section 5.3). *)

val split_driver_hop_ns : float
(** Xen split-driver hop: shared ring + event channel to the driver
    domain. *)

val gvisor_net_ns : float
(** gVisor netstack per-packet overhead (user-space TCP/IP). *)

val nested_io_ns : float
(** Per-packet cost added by nested virtualization (Clear). *)

val lan_rtt_ns : float
(** Client-server round trip on the local network. *)

(** {2 Sanity} *)

val validate : unit -> (unit, string list) result
(** Check every ordering relationship the reproduced shapes depend on;
    [Error] lists violated relations.  Run by the test suite. *)
