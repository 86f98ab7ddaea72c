(** Process control blocks.

    In the X-Container model processes keep their own address spaces "for
    resource management and compatibility" but no longer provide security
    isolation (Section 1): concurrency comes from processes, isolation
    from containers.  The PCB is identical across platforms; what differs
    is how much a switch between PCBs costs. *)

type state = Runnable | Blocked

type t

val create : aspace:Xc_mem.Address_space.t -> t

val state : t -> state
val set_state : t -> state -> unit
val aspace : t -> Xc_mem.Address_space.t
