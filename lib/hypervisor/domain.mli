(** Xen domains.

    Domain-0 runs the toolstack and (conceptually) isolates drivers into
    driver domains; Domain-Us host guests — under the X-Kernel, each
    Domain-U {i is} an X-Container. *)

type kind = Dom0 | Domu | Driver_domain

type state = Created | Running | Paused | Shutdown

type t

val create : kind:kind -> vcpus:int -> memory_mb:int -> t

val kind : t -> kind
val memory_mb : t -> int
val state : t -> state
val set_state : t -> state -> unit
