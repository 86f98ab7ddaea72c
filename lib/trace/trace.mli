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
    + {b Bounded memory.}  Each domain records into columns that grow
      by doubling up to {!enable}[ ~capacity] events; past that they
      are a ring, the oldest event is overwritten and the capture's
      [dropped] counts the loss — tracing never grows without bound
      under heavy simulated traffic.  For runs whose full event stream
      would overflow any reasonable ring, {!enable}[ ~sample:n] keeps
      one event per window of n per (cat,name) stream (rotating the
      slot within the window so streams with periodic durations are
      sampled phase-fairly) and counts the rest exactly, so aggregates
      can be rescaled (see {!Stream.scale} and [Profile.rescale]).

    {b Layout.}  The recorder keeps one column per field: a byte of
    kind, the [cat] and [name] strings, and unboxed float columns of
    start, duration and value.  {!capture} hands the columns to the
    capture as they are — one {e segment} — and nothing writes them
    again.  An {!event} is a view of one row of a segment, read
    through {!kind}, {!cat}, {!name}, {!ts}, {!dur} and {!value}; a
    captured span costs its view and its cons cell, six words.  Views
    share their segment, so they are never compared, hashed or
    marshalled polymorphically: compare or store a projection of the
    accessors instead.

    Timestamps: analytic cost paths (straight-line formulas with no
    engine) call {!span}; the event lands on the recorder's synthetic
    cursor, which then advances by the span's duration, producing a
    well-formed timeline of the cost composition.  Engine-timed code
    (the simulation kernels' request bundles, a request span bracketing
    cursor reads) calls {!span_at} with the time itself in a float
    cell, and the cursor is untouched. *)

type kind = Span | Instant | Counter

type event
(** A view of one recorded or hand-built event. *)

val kind : event -> kind

val cat : event -> string
(** Category, e.g. ["syscall-entry"], ["hypercall"]. *)

val name : event -> string
(** Low-cardinality name within the category. *)

val ts : event -> float
(** Nanoseconds — sim clock or synthetic cursor. *)

val dur : event -> float
(** Span duration in ns; [0.] for instants/counters. *)

val value : event -> float
(** Counter value; request id for request spans; [0.] otherwise. *)

val make :
  kind:kind -> cat:string -> name:string -> ts:float -> dur:float -> value:float -> event
(** A hand-built event (a parsed artifact, a rescaled span, a
    telemetry counter), as its own one-row segment. *)

val span_columns : event list -> event array * float array * float array
(** The events of kind [Span] with positive duration, in list order,
    with their starts and durations as unboxed columns.  A reader that
    loops over times reads these: {!ts} and {!dur} return a boxed
    float. *)

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
    {!default_capacity}, must be >= 1) bounds the per-domain columns
    filled from now on.  [sample] (default 1 = keep everything, must
    be >= 1) sets the sampling stride: each (cat,name) stream keeps
    one event per window of [sample] — the first event always, then
    the slot rotates by one each window so periodic streams are
    sampled phase-fairly — and counts the rest in the capture's
    [streams].  Both settings persist until changed by a later
    [enable]; a capacity change discards the live columns of a
    recorder that records again, counting them as dropped. *)

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

val span_at : id:int -> cat:string -> name:string -> float array -> unit
(** [span_at ~id ~cat ~name t] records a slice of [t.(1)] nanoseconds
    starting at [t.(0)] and leaves the cursor where it is.  [id] rides
    along as the event's {!value}: a request span's id, [0] on any
    other span.  The times come in a float cell and the id as an int,
    so an engine-timed span boxes nothing. *)

val instant : ?at:float -> cat:string -> name:string -> unit -> unit
(** A point event (e.g. one mode switch).  Does not move the cursor. *)

val counter : ?at:float -> cat:string -> name:string -> float -> unit
(** A sampled value (e.g. cumulative cmpxchg count). *)

val cursor : unit -> float
(** The current domain's synthetic cursor — where the next {!span}
    will land.  Lets a caller bracket a composite operation
    (cursor before/after = end-to-end duration) without charging any
    cost itself. *)

(** {1 Capture and composition}

    A capture is the only way out of the recorder.  Captures nest (a
    cell inside an experiment inside the bench harness) and join
    captures recorded on any domains in a deterministic order. *)

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
(** Merge captures in list order into one capture on one time axis:
    segment [k]'s timestamps are shifted to where segment [k-1] ends —
    past its [cursor] and past its latest event, whichever is later —
    dropped counts add, stream accounting merges, and the result's
    [cursor] is where a next segment would start.  So [concat] is
    associative and deterministic in the segment order, never in
    worker scheduling.

    Cursor-placed analytic spans end at most at their segment's
    cursor, so they form the monotone timeline a single recorder
    would have produced.  A segment of engine-timed spans ({!span_at})
    leaves its cursor at 0, and the next segment starts past its last
    span, so no segment's spans fall inside another's. *)
