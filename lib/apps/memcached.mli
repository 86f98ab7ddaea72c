(** The memcached model.

    memtier_benchmark drives it with a 1:10 SET:GET ratio (Section 5.3)
    over many keep-alive connections; memcached answers from its slab
    cache with a handful of syscalls per operation, which is why it shows
    the paper's largest macrobenchmark gains (1.34x-2.08x over Docker).
    ABOM coverage is 100% (Table 1). *)

val mixed_request : Recipe.t
(** The 1:10 SET:GET mix as a single average recipe. *)

val server :
  cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
(** Four worker threads (memcached's default), capped at [cores]. *)
