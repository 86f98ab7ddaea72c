(** The per-domain count of simulated work.

    Every simulation loop credits the events it dispatched, once per
    run: the station and cluster kernels through
    [Xc_platforms.Dispatch.run], the cold-start arrival loop
    ([Xc_apps.Coldstart.run]), and the ISA machine
    ([Xc_isa.Machine.run]), which credits the instructions it retired.
    Analytic models do no simulated work and credit none. *)

val domain_events : unit -> int
(** Cumulative events credited in the {e current domain}.  A caller
    reads it before and after a call to count the simulated work
    inside, even when the loops are internal to that call. *)

val add_domain_events : int -> unit
(** Credit [n] events to the current domain's counter. *)
