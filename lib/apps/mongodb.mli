(** The MongoDB model (Table 1: C/C++, YCSB, 100% ABOM coverage).

    Document store with a B-tree/WiredTiger-style engine: queries touch
    more user-space work (BSON parsing, snapshot bookkeeping) than the
    plain caches, and writes hit the journal. *)

val read_request : Recipe.t

val ycsb_a : Recipe.t
(** YCSB workload A: 50/50 read/update. *)

val server :
  cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
