(** Trace serialisation: Chrome trace-event JSON and compact CSV.

    A trace artifact is a list of named {e tracks} (one per experiment,
    or a single track for an ad-hoc capture).  Both formats are written
    one event per line with fixed-precision floats, so equal traces
    serialise to byte-identical files — the property the tier-1
    [--jobs 1] vs [--jobs 2] [cmp] check relies on.

    The JSON is the Chrome trace-event format ([ph:"X"/"i"/"C"],
    microsecond timestamps): load it in [chrome://tracing] or Perfetto.
    The CSV is [track,kind,cat,name,ts_ns,dur_ns,value].  Both can be
    read back by {!of_file} / {!events_of_string}, which accept exactly
    what this module writes (not arbitrary external files). *)

type track = string * Trace.event list

val to_chrome : ?dropped:int -> track list -> string
(** Chrome trace-event JSON.  Track [i] becomes [tid i+1] with a
    [thread_name] metadata record; [dropped] lands in [otherData]. *)

val to_csv : track list -> string

val to_folded : track list -> string
(** Collapsed-stack flamegraph lines ([stack count\n], track name as
    root frame) — alias of {!Profile.to_folded}. *)

val to_file : ?dropped:int -> path:string -> track list -> unit
(** Writes CSV when [path] ends in [.csv], collapsed stacks when it
    ends in [.folded], Chrome JSON otherwise. *)

val events_of_string : string -> (Trace.event list, string) result
(** Parse either of this module's own formats (sniffed from the first
    byte); tracks are concatenated in track order. *)

val of_file : string -> (Trace.event list, string) result
(** Reads the whole file (channel closed even on failure) and parses
    it; truncated-while-reading files and I/O errors are [Error]s, not
    exceptions. *)

(** {1 Tails CSV}

    Serialisation for {!Profile.tail} values (the [.tails] bench
    sidecar and [--tails]/[--csv] CLI artifacts).  One row per (tail,
    mechanism) with the tail's metadata repeated, closed by a
    [(request-self)] and a [(window-total)] pseudo row; fixed-precision
    floats keep equal tails byte-identical.  Parsing accepts exactly
    what {!to_tails_csv} writes; per-request detail is not serialised,
    so parsed tails come back with [tail = []]. *)

val to_tails_csv : Profile.tail list -> string

val tails_to_file : path:string -> Profile.tail list -> unit

val tails_of_string : string -> (Profile.tail list, string) result
(** Malformed rows, unparsable fields and tails missing either pseudo
    row are [Error]s (truncation detection), never exceptions. *)

val tails_of_file : string -> (Profile.tail list, string) result
(** Reads the whole file (channel closed even on failure) and parses
    it; same [Error] contract as {!of_file}. *)

val render_summary : ?top:int -> Trace.event list -> string
(** Per-category cost table, categories sorted by total span time
    descending, with the [top] (default 5) most expensive names inside
    each category. *)

val fmt_ns : float -> string
(** ["12ns"], ["1.25us"], ["3.20ms"], ["1.500s"] — human-scaled. *)
