(** The guest kernel: Linux, or Linux-turned-X-LibOS.

    One instance models one kernel: the host kernel under Docker/gVisor,
    the guest kernel of a Xen-Container or Clear Container, or the
    X-LibOS of an X-Container.  The {!config} captures the knobs the
    paper turns:

    - [kernel_global]: kernel mappings carry the global bit (X-LibOS
      only, Section 4.3) so process switches keep them in the TLB;
    - [pv_mmu]: page-table updates are validated hypercall batches
      (any Xen-family guest) rather than direct writes — this is why
      fork/exec and context switches stay slower on X-Containers even
      though syscalls get faster (Section 5.4);
    - [smp]: when false, locking and TLB-shootdown costs vanish from
      syscall work (the single-threaded-workload customization of
      Section 3.2). *)

type config = {
  smp : bool;
  kernel_global : bool;
  pv_mmu : bool;
}

val xlibos_config : config
(** X-LibOS: global bit on, PV MMU, SMP on. *)

type t

val create : ?config:config -> unit -> t
(** [config] defaults to a stock bare-metal Linux: SMP on, no global
    kernel mappings, direct page-table writes. *)

val config : t -> config
val vfs : t -> Vfs.t
val processes : t -> Process.t list

(** {2 Processes} *)

val spawn : t -> Process.t
(** Create a fresh process with a kernel-half mapping obeying
    [kernel_global] and a default-sized user mapping. *)

(** {2 Syscall work costs}

    Cost of the in-kernel work of one syscall, {i excluding} the entry
    path (trap/KPTI/forwarding), which the platform layer charges. *)

type op =
  | Cheap of Syscall_nr.t  (** getpid/getuid/umask/dup/close class *)
  | File_read of int  (** bytes *)
  | File_write of int
  | Pipe_read of int
  | Pipe_write of int
  | Socket_send of int
  | Socket_recv of int
  | Epoll
  | Accept_op  (** accept4: new connection setup *)
  | Open_op
  | Stat_op
  | Fork_op
  | Exec_op
  | Wait_op

val syscall_work_ns : t -> op -> float

val context_switch_cost_ns : t -> float
(** One in-kernel process switch: scheduler bookkeeping, CR3 write, user
    TLB refill, and — without the global bit — the kernel TLB refill. *)

val fork_cost_ns : t -> pages:int -> float
val exec_cost_ns : t -> float
