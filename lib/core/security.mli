(** The isolation analysis of Sections 2.2 and 3.4, quantified.

    Each platform draws its inter-container isolation boundary somewhere;
    what matters is the size of the trusted computing base behind that
    boundary and the width of the interface an attacker can poke at.
    This module tabulates both, plus whether the Meltdown-era page-table
    isolation is even needed on the platform's syscall path. *)

type boundary =
  | Host_kernel  (** shared monolithic kernel (Docker) *)
  | Userspace_kernel  (** the Sentry + a host-kernel fallback (gVisor) *)
  | Hypervisor_hvm  (** hardware virtualization (Clear, Xen HVM) *)
  | Hypervisor_pv  (** paravirtual hypervisor (Xen-Container, X-Container) *)
  | None_process  (** a plain process boundary (Graphene w/o SGX) *)

type profile = {
  runtime : Xc_platforms.Config.runtime;
  boundary : boundary;
  tcb_kloc : int;  (** code an attacker must not find a bug in *)
  attack_surface : int;  (** syscalls/hypercalls exposed across it *)
  needs_guest_meltdown_patch : bool;
}

val profile_of : Xc_platforms.Config.runtime -> profile
val all : profile list
val boundary_name : boundary -> string

val vulnerability_exposure : profile -> float
(** A simple figure of merit: TCB kLoC times attack-surface width,
    normalised to Docker = 1.0.  Not a CVE predictor — a way to rank the
    designs on the two measures the paper argues from. *)
