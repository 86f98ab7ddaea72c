(** Page-table entries.

    The [global] bit is the pivot of Section 4.3: paravirtualized Linux
    must clear it (so guest-kernel mappings die on every process switch),
    while X-LibOS may set it for the kernel and X-Kernel mappings because
    kernel isolation inside the container is gone — process switches then
    keep those TLB entries alive. *)

type t = {
  pfn : int;  (** physical frame number *)
  writable : bool;
  user : bool;  (** accessible from user mode *)
  global : bool;  (** survives CR3 switches *)
}

val make : ?writable:bool -> ?user:bool -> ?global:bool -> pfn:int -> unit -> t
