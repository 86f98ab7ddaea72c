(** The Postgres model (Table 1: C/C++, pgbench, 99.8% ABOM coverage).

    Unlike the threaded databases, Postgres is process-per-connection:
    requests do not hop processes, but the server keeps a backend process
    per client, so platform fork costs show up in connection setup and
    the working set grows with connections.  pgbench's TPC-B-like
    transaction touches several pages and the WAL. *)

val transaction : Recipe.t

val server :
  cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
(** Eight backends serving in parallel, capped at [cores]. *)
