(** The one experiment runner, shared by the bench and [xc].

    An experiment is a set of independent cells plus a printer over
    their index-ordered results.  Cells are the unit the worker pool
    ({!Xc_sim.Parallel}) schedules; each runs instrumented (its
    output, trace and telemetry captured on its own domain) and the
    printer runs in the deterministic merge phase, so stdout and every
    artifact are byte-identical at any [--jobs]. *)

(** The per-domain output buffer.  Printers write through these, never
    to stdout: a cell's output is emitted whole, in submission order,
    by whoever prints {!outcome.output}. *)
module Out : sig
  val printf : ('a, unit, string, unit) format4 -> 'a
  val print_string : string -> unit
  val print_endline : string -> unit
  val print_newline : unit -> unit
  val print_table : Xc_sim.Table.t -> unit

  val section : string -> unit
  (** A blank line, [title], an underline of [#], a blank line. *)
end

type 'r cells =
  | Cells : { shards : (unit -> 'b) array; print : 'b array -> 'r } -> 'r cells
(** Independent [shards] and a [print] over their results, in shard
    order; [print]'s value is the experiment's {!outcome.result}. *)

val whole : (unit -> 'r) -> 'r cells
(** One unsplittable cell that prints as it runs. *)

val map : ('r -> 's) -> 'r cells -> 's cells
(** Post-compose the printer's value. *)

(** What one cell recorded. *)
type piece = {
  trace : Xc_trace.Trace.captured;
  telemetry : Xc_sim.Metrics.telemetry;
  events : int;  (** engine events the cell executed on its domain *)
}

type 'r outcome = {
  name : string;
  output : string;  (** the cells' output, then the printer's *)
  result : 'r;
  pieces : piece array;  (** per cell, in cell order *)
  trace : Xc_trace.Trace.captured;  (** the pieces' traces, concatenated *)
  telemetry : Xc_sim.Metrics.telemetry;  (** the pieces' telemetry, merged *)
}

val run : jobs:int -> (string * 'r cells) list -> 'r outcome list
(** Every cell of every named experiment on one pool; one outcome per
    experiment, in submission order. *)

val suite : Suite.t -> Driver.row list cells
(** A generic suite: one {!Driver.run} cell per spec, printed as a
    ["Suite: NAME"] section over {!Driver.render} — what both
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

val write_timeseries :
  path:string -> (string * Xc_sim.Metrics.telemetry) list -> unit
(** Snapshot series as counter tracks: CSV when [path] ends in [.csv],
    Chrome counter events otherwise. *)
