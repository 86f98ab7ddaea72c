(** Critical-path extraction over a span forest.

    {!Xc_trace.Profile.attribute} partitions the {e traced total} over
    enclosing requests — the right lens for "where did all the time
    go".  This module reads the same attribution per request as a
    {e blame chain}: a list of segments that telescopes {e exactly} to
    the request's end-to-end duration, nested requests included.

    Per request, the segments are:
    - one per mechanism category, carrying the self-time of every
      descendant span whose innermost enclosing request is this one;
    - a [(request-self)] segment for window time no span covers
      (queueing, scheduling, think time) — can be negative when direct
      children overlap, which keeps the telescoping identity exact;
    - a [(nested-request)] segment charging each directly nested
      request's {e whole duration} to this chain (its internals are
      blamed on its own chain).

    Algebraically [sum segments = chain_total] for arbitrary forests:
    every descendant duration appears once positively (its own self)
    and once negatively (its parent's self), so the sum telescopes to
    the root duration.  The QCheck suite pins this against an O(n²)
    reference on random forests. *)

type segment = {
  seg_label : string;
      (** mechanism category, {!self_label} or {!nested_label} *)
  seg_spans : int;  (** spans folded into this segment *)
  seg_ns : float;  (** self-time charged to this chain *)
}

type chain = {
  chain_id : int;  (** from the request span's [value] field *)
  chain_name : string;
  chain_total : float;  (** request duration; the segments sum to it *)
  segments : segment list;  (** largest first (ties by label) *)
}

type t = {
  chains : chain list;  (** slowest first (ties by start then id) *)
  unattributed_ns : float;
      (** self-time of spans with no enclosing request *)
}

type summary = {
  n_chains : int;
  path_ns : float;  (** sum of [chain_total] — the total path length *)
  shares : segment list;
      (** segments aggregated over all chains, largest first; their
          [seg_ns] sum to [path_ns] *)
  sum_unattributed_ns : float;
}

val self_label : string
(** ["(request-self)"] — same label {!Xc_trace.Profile.self_frame}
    uses. *)

val nested_label : string
(** ["(nested-request)"]. *)

val of_attribution : Xc_trace.Profile.attribution -> t
(** One chain per attributed request, in the attribution's order. *)

val extract : Xc_trace.Trace.event list -> t
(** [of_attribution (Xc_trace.Profile.attribute evs)]. *)

val summarize : t -> summary

val share : summary -> string -> float
(** [share s label] — the label's fraction of [path_ns] in [0, 1]
    ([0.] when the path is empty or the label absent). *)

val render_chain : chain -> string
(** One block: the request header line and a line per segment with its
    share of the chain. *)

val render : ?top:int -> summary -> string
(** The aggregate share table, largest first, [top] (default all)
    rows. *)
