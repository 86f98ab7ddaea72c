(** Trace diff: explain the cost delta between two runs.

    Given two traces of the same workload on different configurations
    (e.g. the Fig 4 syscall loop on Docker vs on an X-Container), the
    diff aggregates span time per category on each side and ranks
    categories by how much of the end-to-end delta they explain —
    mechanically answering "who wins and why" for every figure. *)

type row = {
  cat : string;
  a_count : int;  (** events (all kinds) in this category, side A *)
  a_ns : float;  (** total span time in this category, side A *)
  b_count : int;
  b_ns : float;
}

val delta : row -> float
(** [b_ns -. a_ns]: positive means B spends more. *)

type report = {
  rows : row list;  (** sorted by |delta| descending, then category *)
  a_total_ns : float;
  b_total_ns : float;
}

val diff :
  ?a_streams:Trace.Stream.t list ->
  ?b_streams:Trace.Stream.t list ->
  a:Trace.event list ->
  b:Trace.event list ->
  unit ->
  report
(** With [?a_streams]/[?b_streams] (sampler accounting from
    [Trace.streams] or a capture), the corresponding side is rescaled
    by {!Profile.rescale} before aggregation so sampled and unsampled
    traces diff on equal footing. *)

val names_in :
  ?a_streams:Trace.Stream.t list ->
  ?b_streams:Trace.Stream.t list ->
  cat:string ->
  a:Trace.event list ->
  b:Trace.event list ->
  unit ->
  row list
(** Same aggregation keyed by event {e name}, restricted to one
    category — the per-mechanism detail under a category row. *)

val dominant : report -> row option
(** The category explaining the largest share of the absolute delta
    ([None] on an empty report). *)

val dominant_share : report -> float
(** |delta| of {!dominant} over the sum of |delta| across categories;
    [0.] when the traces agree everywhere. *)

val render :
  ?a_label:string ->
  ?b_label:string ->
  ?a_streams:Trace.Stream.t list ->
  ?b_streams:Trace.Stream.t list ->
  a:Trace.event list ->
  b:Trace.event list ->
  unit ->
  string
(** Full human-readable diff: per-category table, totals line, the
    dominant category with its share, and a per-name breakdown of that
    category. *)

(** {1 Tail diffs}

    Compare the p-tail composition of two platforms.  Each side's tail
    was cut at its own percentile (different absolute latencies, often
    different tail sizes), so rows compare {e mean nanoseconds per
    tail request} — the per-request cost of each mechanism among the
    slow requests — and rank mechanisms by how much of the per-request
    p99 gap they explain. *)

type tail_row = {
  mech : string;
      (** mechanism category, or {!Profile.self_frame} for uncovered
          request-window time (queueing, jitter) *)
  a_spans : int;  (** mechanism spans in A's tail (tail size for self) *)
  a_mean_ns : float;  (** mean ns per tail request, side A *)
  b_spans : int;
  b_mean_ns : float;
}

type tail_report = {
  tail_rows : tail_row list;  (** sorted by |delta| descending, then name *)
  a_tail : Profile.tail;
  b_tail : Profile.tail;
}

val diff_tails : a:Profile.tail -> b:Profile.tail -> tail_report

val dominant_tail : tail_report -> tail_row option
(** The mechanism explaining the largest share of the absolute
    per-request tail delta ([None] when both tails are empty). *)

val dominant_tail_share : tail_report -> float
(** |delta| of {!dominant_tail} over the sum of |delta| across rows. *)

val render_tails : a:Profile.tail -> b:Profile.tail -> string
(** Human-readable tail diff: one summary line per side (tail size,
    cut, mean tail latency), the per-mechanism table, and the dominant
    mechanism with its share. *)
