(** Memory ballooning (Section 4.5 "Memory management").

    The prototype gives every X-Container a static reservation; the paper
    points to ballooning as the known fix.  This model implements it: a
    balloon driver in each guest inflates (returns pages to the
    hypervisor) or deflates (reclaims them) towards a target set by the
    host, letting the host oversubscribe memory the way Linux containers
    do. *)

type t

val create : domain:Domain.t -> t
(** A balloon for a domain; starts fully deflated (guest owns its whole
    reservation). *)

val guest_usable_mb : t -> int
(** Memory currently usable by the guest (reservation - balloon size). *)

val ballooned_mb : t -> int

val set_target : t -> usable_mb:int -> (int, string) result
(** Ask the guest to move to [usable_mb]: inflates or deflates as needed.
    Returns the number of MB transferred to/from the hypervisor.  Fails
    below the 64 MB floor the paper measured X-Containers to work at, or
    above the reservation. *)

val min_usable_mb : int
(** 64 MB (footnote 1 of Section 5.6). *)

(** {2 Host-side oversubscription} *)

type pool

val pool : host_mb:int -> pool
val attach : pool -> t -> unit

val pool_free_mb : pool -> int
val pool_committed_mb : pool -> int
(** Sum of reservations: may exceed [host_mb] once ballooning works. *)
