(** The suite registry: every bench experiment as declarative data,
    plus generically-runnable named suites.

    [bench] holds the 20 baseline experiments in bench order; [smoke]
    the 5 smoke-variant suites; [smoke_cheap] names the bench
    experiments the smoke list reuses unchanged.  Together they are the
    bench's experiment table: the bench maps each suite to its printer,
    byte-identical to the pre-refactor hand-coded drivers (pinned by
    the differential golden tests), and a suite without a printer
    aborts it at startup.  [named] suites use only ["generic"] kinds
    and run as {!Run.suite} (`xc suite run`, `bench --suite`).

    The whole registry is validated at module init — a malformed entry
    raises [Invalid_argument] before anything can run. *)

val bench : (string * Suite.t) list
val bench_names : string list

val smoke : (string * Suite.t) list
val smoke_cheap : string list

val smoke_names : string list
(** [smoke_cheap @ List.map fst smoke] — the bench smoke list, in
    order. *)

val named : (string * Suite.t) list
val named_names : string list

val find_bench : string -> Suite.t option
val find_smoke : string -> Suite.t option
val find_named : string -> Suite.t option

val spec_text : string -> string option
(** Canonical spec text for any registry suite (bench, smoke or
    named) — what [xc suite show] prints. *)

val cluster_scale_suite :
  string ->
  fleet_nodes:int ->
  fleet_shards:int ->
  diffs:(string * int * int) list ->
  mixed_containers:int ->
  Suite.t
(** The cluster-scale family shape shared by [cluster-scale] and
    [cluster-smoke]: a sharded fluid fleet, [(mode, containers,
    connections)] differential points, and a mixed-tier cell. *)
