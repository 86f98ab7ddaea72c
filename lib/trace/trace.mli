(** Deterministic, bounded, per-domain event tracing.

    Every figure in the paper is the product of event {e counts} and
    unit {e costs} (mode switches, hypercalls, context switches,
    copies).  This recorder captures those events as they are charged,
    so a run artifact can answer "where did the time go" — and a diff
    of two artifacts can answer "who wins and why" (see {!Diff}).

    Design constraints, in priority order:

    + {b Zero cost when disabled.}  Every emitting function loads one
      atomic flag and branches; no allocation, no formatting.  Hot
      call sites additionally guard with {!enabled} so even argument
      construction is skipped.
    + {b Determinism.}  Events carry simulated or synthetic-cursor
      timestamps, never wall-clock.  Each cell of a fan-out
      ([Xc_suite.Run]) records into its own {!capture} on whatever
      domain runs it, and the runner joins the captures in cell order
      with {!concat}, so a traced run is byte-identical at any
      [--jobs] (enforced in tier-1) — sampled runs included, because
      the sampler state is per-capture.
    + {b Bounded memory.}  Each domain records into a ring of
      {!enable}[ ~capacity] events; on overflow the oldest event is
      overwritten and {!dropped} counts the loss — tracing never grows
      without bound under heavy simulated traffic.  For runs whose
      full event stream would overflow any reasonable ring,
      {!enable}[ ~sample:n] keeps one event per window of n per
      (cat,name) stream (rotating the slot within the window so
      streams with periodic durations are sampled phase-fairly) and
      counts the rest exactly, so aggregates can be rescaled (see
      {!Stream.scale} and [Profile.rescale]).

    Timestamps: analytic cost paths (straight-line formulas with no
    engine) call {!span}; the event lands on the recorder's synthetic
    cursor, which then advances by the span's duration, producing a
    well-formed timeline of the cost composition.  Engine-timed code
    (the simulation kernels' request bundles, a request span bracketing
    cursor reads) calls {!span_at} with the time itself, and the
    cursor is untouched. *)

type kind = Span | Instant | Counter

type event = {
  kind : kind;
  cat : string;  (** category, e.g. ["syscall-entry"], ["hypercall"] *)
  name : string;  (** low-cardinality name within the category *)
  ts : float;  (** nanoseconds — sim clock or synthetic cursor *)
  dur : float;  (** span duration in ns; [0.] for instants/counters *)
  value : float;  (** counter value; request id for request spans; [0.] otherwise *)
}

val kind_to_string : kind -> string

(** Exact per-stream sampler accounting.  One entry per (cat,name)
    stream that passed through the sampling gate while a stride > 1
    was set. *)
module Stream : sig
  type t = {
    cat : string;
    name : string;
    seen : int;  (** events offered to the gate *)
    kept : int;  (** events actually recorded *)
  }

  val skipped : t -> int
  (** [seen - kept]. *)

  val scale : t -> float
  (** [seen /. kept] — multiply a kept-events aggregate by this to
      estimate the full-population aggregate.  [1.] if nothing was
      kept. *)
end

val default_capacity : int
(** [2^18] (262144) events per domain: room for a traced cluster run's
    request bundles, so tail attribution sees every request. *)

(** {1 Switches} *)

val enable : ?capacity:int -> ?sample:int -> unit -> unit
(** Turn tracing on process-wide.  [capacity] (default
    {!default_capacity}, must be >= 1) sets the per-domain ring size
    for buffers allocated from now on.  [sample] (default 1 = keep
    everything, must be >= 1) sets the sampling stride: each
    (cat,name) stream keeps one event per window of [sample] — the
    first event always, then the slot rotates by one each window so
    periodic streams are sampled phase-fairly — and counts the rest in
    {!streams}.  Both settings persist until changed by a later
    [enable]. *)

val disable : unit -> unit

val enabled : unit -> bool
(** One atomic load; inlinable.  Emitters are already guarded, but hot
    call sites should test this before building event arguments. *)

(** {1 Emitters}

    All are no-ops when disabled.  With a sampling stride > 1, each
    emitter offers the event to the per-stream gate; a skipped span
    still advances the synthetic cursor so kept timestamps are
    identical to the unsampled timeline. *)

val span : cat:string -> name:string -> float -> unit
(** [span ~cat ~name ns] records a slice of [ns] nanoseconds at the
    current domain's cursor, which advances by [ns]. *)

val span_at : ?value:float -> at:float -> cat:string -> name:string -> float -> unit
(** [span_at ~at ~cat ~name ns] records a slice of [ns] nanoseconds
    starting at [at] and leaves the cursor where it is.  [value]
    (default [0.]) rides along in the event — request spans carry the
    request id in it.  Two functions rather than an optional [?at], so
    an engine-timed span does not allocate the option. *)

val instant : ?at:float -> cat:string -> name:string -> unit -> unit
(** A point event (e.g. one mode switch).  Does not move the cursor. *)

val counter : ?at:float -> cat:string -> name:string -> float -> unit
(** A sampled value (e.g. cumulative cmpxchg count). *)

val cursor : unit -> float
(** The current domain's synthetic cursor — where the next {!span}
    will land.  Lets a caller bracket a composite operation
    (cursor before/after = end-to-end duration) without charging any
    cost itself. *)

(** {1 Draining} *)

val take : unit -> event list
(** Drain the current domain's buffer in record order and reset it
    (cursor back to 0, dropped count and sampler streams cleared).
    Read {!dropped} and {!streams} {e before} calling this if you need
    the loss count or the sampler accounting. *)

val dropped : unit -> int
(** Events overwritten in the current domain's ring since the last
    {!take}. *)

val streams : unit -> Stream.t list
(** Per-stream sampler accounting since the last {!take},
    sorted by (cat, name).  Empty when no stride > 1 was active. *)

(** {1 Composition}

    These two let captures nest (a cell inside an experiment inside
    the bench harness) and join captures recorded on any domains in a
    deterministic order. *)

type captured = {
  events : event list;  (** in record order *)
  dropped : int;  (** ring overwrites during the capture *)
  streams : Stream.t list;  (** sampler accounting, sorted by (cat,name) *)
  cursor : float;  (** final synthetic cursor — the capture's span-sum *)
}

val capture : (unit -> 'a) -> 'a * captured
(** [capture f] runs [f] with a fresh recorder state on this domain
    and returns [(result, captured)]; the state that was live before
    the call is restored afterwards (also on exceptions, in which case
    the inner events are discarded with the exception re-raised).
    When disabled: [(f (), c)] with [c] empty. *)

val concat : captured list -> captured
(** Merge captures in list order into one capture: segment [k]'s
    timestamps are shifted by the cumulative [cursor] of segments
    [0..k-1] (so cursor-placed analytic spans form the monotone
    timeline a single recorder would have produced), dropped counts
    add, stream accounting merges, and the result's [cursor] is the
    cursor sum — so [concat] is associative and deterministic in the
    segment order, never in worker scheduling.

    Engine-timestamped spans of different segments can overlap: a
    segment whose spans all come from {!span_at} leaves its cursor at
    0 and shifts the later segments by nothing, so their spans share
    one time axis. *)
