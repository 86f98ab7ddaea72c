(** Profiles over trace event lists: the span forest, and the views
    over it — collapsed-stack folding for flamegraphs, exact per-request
    attribution and tail cuts — plus rescaling of sampled aggregates.

    The synthetic-cursor timeline (see {!Trace}) makes nesting
    recoverable from timestamps alone: a span that starts inside
    another span's [ts, ts+dur) window and ends inside it is its
    child.  {!sweep} recovers that containment forest once, in one
    canonical order with one nesting rule, and every view here (and
    [Xc_obs.Critical_path]) reads it, so no two views of a trace can
    disagree about parenthood. *)

val fmt_ns : float -> string
(** Human format for nanoseconds: [742ns], [3.40us], [1.25ms],
    [2.100s].  (Re-exported as [Export.fmt_ns].) *)

(** {1 The span forest} *)

type forest = {
  spans : Trace.event array;
      (** the spans with positive duration, in canonical order: by
          start time, then longer first, then by (cat, name) *)
  parent : int array;
      (** index of each span's innermost enclosing span, [-1] for a
          root *)
  self : float array;
      (** each span's duration minus its direct children's durations;
          negative when children overlap each other *)
  closing : int array;
      (** span indices in the order the spans close: children before
          their parent, each sibling before the next one opens *)
}

val sweep : Trace.event list -> forest
(** Put the span timeline into canonical order and walk it once with
    a stack.  One linear pass checks the order first, and only a
    timeline out of order is sorted: a bundle lane's never is.  A span nests in the innermost open span whose end it does
    not pass by more than a relative epsilon.  Instants, counters and
    zero-duration spans do not appear. *)

(** {1 Flamegraph folding} *)

val fold : ?root:string -> Trace.event list -> (string * float) list
(** Fold the forest into [(stack, self_ns)] rows, sorted by stack.
    Each span contributes the frame ["cat;name"] below its parent's
    stack; rows whose self-time is not positive are dropped.  [root]
    prepends one frame (e.g. the track name) to every stack. *)

val to_folded : (string * Trace.event list) list -> string
(** Render tracks as collapsed-stack lines — [stack count\n] with the
    track name as root frame and self-time nanoseconds (rounded to
    integers; sub-nanosecond rows are dropped) as the count — ready
    for [flamegraph.pl] or speedscope.  Deterministic: rows are sorted
    by stack. *)

(** {1 Sampled-trace rescaling} *)

val rescale : streams:Trace.Stream.t list -> Trace.event list -> Trace.event list
(** Multiply every span's duration by its stream's [seen/kept] factor,
    turning a sampled trace into an unbiased estimator of the full
    trace's aggregate costs.  Events whose (cat,name) has no stream
    entry (or kept = seen) pass through unchanged; [streams = []] is
    the identity. *)

val render_streams : Trace.Stream.t list -> string
(** Terminal table of per-stream sampler accounting (seen, kept,
    skipped, scale). *)

(** {1 Largest-first tallies} *)

type tally
(** A mutable [(label -> spans, ns)] table. *)

val tally : unit -> tally

val tally_add : tally -> string -> int -> float -> unit
(** [tally_add t label spans ns] adds [spans] and [ns] to [label]'s
    row. *)

val tally_rows : tally -> (string * int * float) list
(** [(label, spans, ns)] rows, largest [ns] first (ties by label). *)

(** {1 Exact self-time attribution}

    Each span's self-time is charged to its innermost enclosing
    [request] span.  Self-times telescope, so the per-request buckets
    plus the [unattributed] remainder sum {e exactly} to the total
    traced self-time (the sum of root-span durations) — a partition,
    with no double counting across nested or overlapping requests. *)

type attributed_request = {
  req_id : int;  (** from the request span's [value] field *)
  req_name : string;  (** request span name, e.g. ["cluster"] *)
  req_start : float;  (** span start, ns *)
  req_total : float;  (** end-to-end duration, ns *)
  req_self : float;
      (** request window time not covered by any mechanism span:
          queueing, jitter, think time.  Can be negative when direct
          children overlap each other — kept so the partition stays
          exact. *)
  req_mech : (string * int * float) list;
      (** (category, span count, self ns) of mechanism spans owned by
          this request, largest first (ties by category) *)
  req_nested : int;  (** requests nested directly inside this one *)
  req_nested_ns : float;
      (** their summed durations; [req_self + req_mech + req_nested_ns]
          is [req_total] *)
}

type attribution
(** The forest with each span's owning request and, per request, its
    nested-request charges and the range of the closing order its
    mechanism spans close in.  {!attribute} builds no
    {!attributed_request}: {!requests} builds all of them,
    {!tail_of} only the tail's, {!render_slowest} only its [k], and
    {!request_totals} none. *)

val attribute : Trace.event list -> attribution
(** Partition the forest's self-time between enclosing requests and
    the unattributed bucket. *)

val requests : attribution -> attributed_request list
(** Every request, slowest first (ties by start then id). *)

val unattributed_ns : attribution -> float
(** Self-time of spans with no enclosing request span. *)

val total_self_ns : attribution -> float
(** Sum of root-span durations; equals the sum over {!requests} of
    [req_self + sum req_mech] plus {!unattributed_ns}. *)

val request_totals : attribution -> float list
(** End-to-end durations of all requests, slowest first — feed these
    to [Xc_sim.Histogram.of_samples] to compute a percentile cut. *)

(** {1 Tail cuts} *)

type tail = {
  label : string;  (** which platform/run this tail describes *)
  pct : float;  (** the percentile the cut was computed at *)
  cut_ns : float;  (** latency cut, ns *)
  n_requests : int;  (** requests in the whole attribution *)
  n_tail : int;  (** requests with [req_total >= cut_ns] *)
  tail : attributed_request list;  (** the tail requests, slowest first *)
  tail_mech : (string * int * float) list;
      (** per-mechanism (category, span count, self ns) aggregated
          over the tail requests, largest first *)
  tail_self_ns : float;  (** sum of [req_self] over the tail *)
  tail_total_ns : float;  (** sum of [req_total] over the tail *)
}

val self_frame : string
(** The pseudo-mechanism label ["(request-self)"] used by renderers,
    the tails CSV and tail diffs for uncovered request-window time. *)

val nested_frame : string
(** ["(nested-request)"], the row charging a request for the requests
    nested inside it. *)

val tail_of : ?label:string -> pct:float -> cut_ns:float -> attribution -> tail
(** Aggregate the requests at or above [cut_ns], building their
    records only.  The cut itself is the caller's business (this
    library has no histogram); [pct] is carried along for rendering
    and export only. *)

val render_tail : ?slowest:int -> tail -> string
(** Terminal rendering: the aggregate per-mechanism table (share of
    attributed tail time, with a [(request-self)] row for uncovered
    window time), and with [~slowest:k > 0] a per-request block for
    the [k] slowest tail requests. *)

val render_slowest : ?k:int -> Trace.event list -> string
(** The [k] (default 3) slowest attributed requests of a trace, each
    as the per-request block {!render_tail} prints: mechanism rows, a
    [(nested-request)] row when requests nest, and a [(self)] row,
    each with its share of the request's duration.  Builds the records
    of those [k] only. *)
