(** Xen event channels (paravirtualized interrupts).

    In stock Xen PV, pending events are delivered by trapping into the
    hypervisor; in an X-Container, X-LibOS notices the shared pending flag
    and emulates the interrupt stack frame entirely in user mode
    (Section 4.2).  The delivery-cost difference is one of the
    modifications that separates Xen-Containers from X-Containers in the
    macrobenchmarks. *)

type delivery = Via_hypervisor | Direct_user_mode

type t

val create : delivery -> t

val bind : t -> port:int -> unit
val is_bound : t -> port:int -> bool

val notify : t -> port:int -> float
(** Raise an event on a bound port; returns the sender-side cost. *)

val pending : t -> int list
(** Bound ports with undelivered events, ascending. *)

val deliver_pending : t -> (int -> unit) -> float
(** Run the handler for every pending event (clearing them); returns the
    total receiver-side delivery cost, which depends on the mode. *)

val delivered_count : t -> int
