(** A running X-Container.

    The top of the stack: an X-Kernel domain running one X-LibOS and the
    container's processes, with a live ABOM patcher attached to the
    domain's syscall trap path.  [exec_program] actually executes the
    container's binary on the ISA machine — the first syscall at each
    site traps and is rewritten, subsequent ones are function calls —
    and [syscall_stats] reports what the paper's Section 5.2 counter
    reported. *)

type t

val boot :
  ?toolstack:Boot.toolstack ->
  xkernel:Xc_hypervisor.Xkernel.t ->
  Spec.t ->
  (t, string) result
(** Create the domain, boot the X-LibOS, run the bootloader.  Fails when
    the spec is invalid, the image unknown, or host memory exhausted. *)

val shutdown : xkernel:Xc_hypervisor.Xkernel.t -> t -> unit

val domain : t -> Xc_hypervisor.Domain.t
val libos : t -> Xc_os.Kernel.t
val boot_time : t -> Boot.breakdown
val processes : t -> Xc_os.Process.t list

val exec_program : ?repeat:int -> t -> (Xc_isa.Machine.exit_reason, string) result
(** Run the image's entry binary [repeat] times (default 1) under ABOM. *)

type syscall_stats = {
  total : int;
  via_trap : int;
  via_function_call : int;
  reduction : float;  (** fraction converted, as in Table 1 *)
}

val syscall_stats : t -> syscall_stats

val profile : t -> Xc_abom.Profile.t option
(** The full syscall profile of the container's executions ([None] when
    the image carries no entry program). *)

val service_time_ns : t -> platform:Xc_platforms.Platform.t -> float option
(** Per-request service time of the image's recipe on a platform. *)
