(** The InfluxDB model (Table 1: Go, influxdb-comparisons, 100%).

    A time-series database: writes arrive as line-protocol batches and
    append to the WAL plus the in-memory TSM cache; queries scan series.
    Go runtime, so syscall sites use the stack-loaded pattern (ABOM case
    2) — coverage is full. *)

val mixed_request : Recipe.t
(** influxdb-comparisons' load phase mix: mostly writes. *)

val server :
  cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
