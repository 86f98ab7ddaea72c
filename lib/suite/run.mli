(** The one experiment runner, shared by the bench and [xc].

    An experiment is a set of independent cells plus a report over
    their index-ordered results.  Cells are the unit the worker pool
    ({!Xc_sim.Parallel}) schedules; each runs instrumented (its trace
    and telemetry captured on its own domain) and the report is built
    and rendered in the deterministic merge phase, so stdout and every
    artifact are byte-identical at any [--jobs].  The runner is the only
    code that switches tracing and telemetry on ({!run}, {!map}) and the
    only code that writes their artifacts ({!write}); the
    [core.inventory] test "one capture path" holds the bench and [xc]
    to it. *)

(** {1 Reports}

    What an experiment prints, as data: the text printer and the CSV
    writer are two views of the same typed tables. *)

type block =
  | Section of string  (** A blank line, the title, an underline of [#], a blank line. *)
  | Table of Xc_sim.Table.t
  | Line of string  (** One line of text; [""] is a blank line. *)

type report = block list

val render : report -> string

val tables : report -> Xc_sim.Table.t list
(** The report's tables, in order. *)

(** {1 Running}

    [?trace] (a sampling stride: [1] keeps every event) and
    [?telemetry] (a snapshot interval in sim-ns) switch each on around
    the pool and off again when it returns, also on an exception; every
    cell captures its own trace, at that stride, and its own telemetry.
    A capture a cell makes inside itself records at its own stride
    (every event unless it asks otherwise).  Price what a cell runs
    before the call: the platform cost queries emit spans themselves,
    so pricing inside a traced cell would record into its track. *)

type cells =
  | Cells : { shards : (unit -> 'b) array; report : 'b array -> report } -> cells
(** Independent [shards] and the [report] over their results, in shard
    order. *)

val whole : (unit -> report) -> cells
(** One unsplittable cell. *)

(** What one cell recorded. *)
type piece = {
  trace : Xc_trace.Trace.captured;
  telemetry : Xc_sim.Metrics.telemetry;
  events : int;  (** engine events the cell executed on its domain *)
}

type outcome = {
  name : string;
  report : report;
  output : string;  (** the report, rendered *)
  pieces : piece array;  (** per cell, in cell order *)
  trace : Xc_trace.Trace.captured;  (** the pieces' traces, concatenated *)
  telemetry : Xc_sim.Metrics.telemetry;  (** the pieces' telemetry, merged *)
}

val run :
  ?trace:int -> ?telemetry:float -> jobs:int -> (string * cells) list -> outcome list
(** Every cell of every named experiment on one pool; one outcome per
    experiment, in submission order. *)

val map :
  ?trace:int -> ?telemetry:float -> jobs:int -> (unit -> 'a) list -> ('a * piece) list
(** Independent cells on one pool, captured as {!run} captures them:
    each cell's result and what it recorded, in order.  For a command
    that lays out typed results itself. *)

val suite : Suite.t -> cells
(** A generic suite: one {!Driver.run} cell per spec, reported as a
    ["Suite: NAME"] section over {!Driver.table} — what both
    [bench --suite NAME] and [xc suite run NAME] print. *)

(** {1 Artifacts}

    Tracks are [(label, capture)] pairs, one per experiment, cell or
    run, in the order they should appear. *)

val tails :
  pct:float ->
  (string * Xc_trace.Trace.captured) list ->
  (Xc_trace.Profile.tail list, string) result
(** {!Xc_obs.Causal.tail_at} over every track, keeping the
    request-emitting ones; the first truncated one is the [Error]. *)

(** The artifact files to write, each optional. *)
type files = {
  trace_out : string option;
      (** the span tracks: Chrome trace-event JSON recording the summed
          drop count, or CSV / collapsed stacks when the path ends in
          [.csv] / [.folded] *)
  request_lanes : bool;
      (** in [trace_out], each track's request spans on a lane of their
          own, [LABEL/request-id], above its mechanism lane *)
  folded_out : string option;  (** collapsed-stack flamegraph lines *)
  tails_out : string option;  (** the tails CSV ({!Xc_trace.Export.to_tails_csv}) *)
  timeseries_out : string option;
      (** the snapshot series as counter tracks: CSV when the path ends
          in [.csv], Chrome counter events otherwise *)
  perfetto_out : string option;
      (** one Chrome JSON: each span track followed by the counter
          track [LABEL/metrics] of the series at the same position *)
}

val no_files : files

val write :
  ?spans:(string * Xc_trace.Trace.captured) list ->
  ?tails:Xc_trace.Profile.tail list ->
  ?series:(string * Xc_sim.Metrics.telemetry) list ->
  files ->
  string list
(** The one artifact writer: every requested file, from the span
    tracks, tails and snapshot series given (none by default).
    Returns one note per file written, in the order tails, trace,
    folded, timeseries, perfetto: its path and what it holds, e.g.
    ["t.json (1200 events)"]. *)

val write_csvs : dir:string -> id:string -> report -> string list
(** Each table of the report as {!Xc_sim.Table.to_csv}, one file per
    table in [dir] (made if missing): [ID.csv] for an untitled table,
    [ID_TITLE.csv] for a titled one, the title's letters and digits
    lowercased and joined by [_].  Returns the paths, in order. *)
