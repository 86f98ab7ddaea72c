(** The Figure 8 scalability experiment.

    Up to 400 NGINX+PHP-FPM containers (one worker each, 4 processes per
    container counting masters) on one 16-core machine, each driven by a
    dedicated wrk thread with 5 connections.  The shape of the figure is
    a scheduling story (Section 5.6):

    - Docker's host kernel schedules 4N processes on a flat runqueue:
      cheap switches at small N, but bookkeeping and cache pollution grow
      with 4N;
    - the X-Kernel schedules N single-vCPU domains, and each X-LibOS
      schedules its own 4 processes: both levels stay small — the
      hierarchy wins 18% at N = 400;
    - Xen PV/HVM VMs behave like X-Containers at the hypervisor level but
      pay more per guest switch, need 256-512 MB each, and simply cannot
      boot beyond ~250 / ~200 instances on a 96 GB machine. *)

type point = {
  containers : int;
  throughput_rps : float;
  booted : bool;  (** false when the platform cannot start this many *)
  service_ns : float;  (** per-request service time incl. overhead *)
}

val run : Xc_platforms.Config.runtime -> containers:int -> point

val sweep : Xc_platforms.Config.runtime -> int list -> point list

val default_counts : int list
(** The x-axis of Figure 8. *)
