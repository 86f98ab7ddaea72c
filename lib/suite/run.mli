(** The one experiment runner, shared by the bench and [xc].

    An experiment is a set of independent cells plus a report over
    their index-ordered results.  Cells are the unit the worker pool
    ({!Xc_sim.Parallel}) schedules; each runs instrumented (its trace
    and telemetry captured on its own domain) and the report is built
    and rendered in the deterministic merge phase, so stdout and every
    artifact are byte-identical at any [--jobs]. *)

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

(** {1 Running} *)

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

val run : jobs:int -> (string * cells) list -> outcome list
(** Every cell of every named experiment on one pool; one outcome per
    experiment, in submission order. *)

val suite : Suite.t -> cells
(** A generic suite: one {!Driver.run} cell per spec, reported as a
    ["Suite: NAME"] section over {!Driver.table} — what both
    [bench --suite NAME] and [xc suite run NAME] print. *)

(** {1 Artifacts}

    Tracks are [(label, capture)] pairs, one per experiment, cell or
    run, in the order they should appear. *)

val write_trace : path:string -> (string * Xc_trace.Trace.captured) list -> unit
(** Chrome trace-event JSON, or CSV / collapsed stacks when [path] ends
    in [.csv] / [.folded]; the JSON records the summed drop count. *)

val write_folded : path:string -> (string * Xc_trace.Trace.captured) list -> unit
(** Collapsed-stack flamegraph lines, whatever [path]'s extension. *)

val tails :
  pct:float ->
  (string * Xc_trace.Trace.captured) list ->
  (Xc_trace.Profile.tail list, string) result
(** {!Xc_obs.Causal.tail_at} over every track, keeping the
    request-emitting ones; the first truncated one is the [Error]. *)

val write_tails : path:string -> Xc_trace.Profile.tail list -> unit
(** The tails CSV ({!Xc_trace.Export.to_tails_csv}). *)

val write_csvs : dir:string -> id:string -> report -> string list
(** Each table of the report as {!Xc_sim.Table.to_csv}, one file per
    table in [dir] (made if missing): [ID.csv] for an untitled table,
    [ID_TITLE.csv] for a titled one, the title's letters and digits
    lowercased and joined by [_].  Returns the paths, in order. *)

val write_timeseries :
  path:string -> (string * Xc_sim.Metrics.telemetry) list -> unit
(** Snapshot series as counter tracks: CSV when [path] ends in [.csv],
    Chrome counter events otherwise. *)
