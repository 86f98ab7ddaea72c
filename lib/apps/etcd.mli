(** The etcd model (Table 1: Go, etcd-benchmark, 100% ABOM coverage).

    A Raft-replicated key-value store: every write pays an fsync-class
    WAL append and (in a cluster) peer round trips; reads are served from
    the in-memory index.  Being a Go program, its syscall sites compile
    to the stack-loaded pattern ABOM handles with the dynamic vsyscall
    entry — coverage still reaches 100%. *)

val mixed_request : Recipe.t
(** etcd-benchmark's default mix (3:1 read:write, single node). *)

val server :
  cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
