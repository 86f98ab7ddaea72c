(** The hypercall interface.

    The paper's isolation argument rests on the exokernel exposing "a
    small number of well-documented system calls" (Section 3): the
    hypercall table below is the whole attack surface of the X-Kernel,
    versus ~350 syscalls for a monolithic Linux host.  Hypercall costs
    are priced from [Xc_cpu.Costs] where a platform pays them. *)

type kind =
  | Mmu_update  (** batched validated page-table writes *)
  | Mmuext_op  (** TLB flushes, pin/unpin tables *)
  | Update_va_mapping
  | Set_trap_table
  | Sched_op  (** yield/block *)
  | Event_channel_op
  | Grant_table_op  (** shared-memory grants for split drivers *)
  | Iret  (** return-from-interrupt for stock PV guests *)
  | Set_segment_base
  | Console_io
  | Domctl  (** domain management (toolstack only) *)

val surface_size : unit -> int
(** Number of distinct hypercalls = the attack surface (cf. Table TCB). *)
