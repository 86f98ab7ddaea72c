(** Discrete-event simulation engine.

    A classic event-list simulator: callbacks scheduled at absolute
    simulated times, executed in timestamp order (insertion order among
    ties, so runs are deterministic).  The throughput experiments (Figures
    3, 6, 8, 9) run client/server loops on top of this engine.

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

val schedule_after : t -> Time_ns.t -> (t -> unit) -> unit
(** [schedule_after t delay f] = [schedule t (now t + delay) f]. *)

val pending : t -> int
(** Number of events not yet executed. *)

val events_executed : t -> int
(** Events executed by this engine so far. *)

val domain_events : unit -> int
(** Cumulative events in the {e current domain}: dispatches by every
    engine created in it, plus instructions retired by
    [Xc_isa.Machine.run] (its only {!add_domain_events} caller).  A
    caller reads it before and after a call to count the simulated
    work inside, even when the engines are internal to that call. *)

val add_domain_events : int -> unit
(** Credit [n] ISA-machine instruction steps to the current domain's
    counter.  Nothing else calls it: analytic models do no simulated
    work and credit none. *)

val step : t -> bool
(** Execute the next event; [false] if the queue was empty. *)

val run : ?until:Time_ns.t -> t -> unit
(** Run until the queue drains or the clock would pass [until].  With
    [until], the clock is left at exactly [until] if reached. *)
