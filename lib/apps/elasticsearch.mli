(** The Elasticsearch model (Table 1: Java, elasticsearch-stress-test,
    98.8%).

    Search and indexing on the JVM: requests carry heavy user-space work
    (JSON, scoring, the JVM itself), indexing appends to the translog,
    and a small share of syscalls go through JVM-internal wrappers the
    online patcher does not match. *)

val mixed_request : Recipe.t
(** The stress test's default 80/20 search/index mix. *)

val server :
  cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
