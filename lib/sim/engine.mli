(** Discrete-event simulation engine.

    A classic event-list simulator: callbacks scheduled at absolute
    simulated times, executed in timestamp order (insertion order among
    ties, so runs are deterministic).  The serverless cold-start model
    runs on it; the closed and open request loops
    ([Xc_platforms.Station]) and the exact cluster tier
    ([Xc_platforms.Cluster_sim.run]) keep this dispatch order with int
    event codes instead of callbacks.

    Events scheduled at exactly the current timestamp take a FIFO fast
    lane that bypasses the heap entirely; ordering is unchanged (events
    already queued for the same timestamp still run first, since they
    were scheduled earlier). *)

type t

val create : unit -> t

val now : t -> Time_ns.t
(** Current simulated time. *)

val schedule : t -> Time_ns.t -> (t -> unit) -> unit
(** [schedule t at f] runs [f] when the clock reaches [at].  Scheduling in
    the past raises [Invalid_argument]. *)

val pending : t -> int
(** Number of events not yet executed. *)

val events_executed : t -> int
(** Events executed by this engine so far. *)

val domain_events : unit -> int
(** Cumulative events in the {e current domain}: dispatches by every
    engine created in it, plus what {!add_domain_events} credits — the
    dispatches of [Xc_platforms.Station.run] (the closed and open
    loops' kernel) and [Xc_platforms.Cluster_sim.run], and the
    instructions retired by [Xc_isa.Machine.run], its only three
    callers.  A caller reads it
    before and after a call to count the simulated work inside, even
    when the engines are internal to that call. *)

val add_domain_events : int -> unit
(** Credit [n] events to the current domain's counter: the station or
    cluster kernel's dispatches, or ISA-machine instruction steps.
    Nothing else calls it: analytic models do no simulated work and
    credit none. *)

val run : ?until:Time_ns.t -> t -> unit
(** Run until the queue drains or the clock would pass [until].  With
    [until], the clock is left at exactly [until] if reached. *)
