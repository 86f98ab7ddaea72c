(** Per-process address spaces with the canonical x86-64 split.

    User memory lives in the lower half and the (lib)OS kernel in the top
    half; Section 4.2 exploits exactly this layout: the X-Kernel decides
    "guest kernel mode vs guest user mode" by looking at the most
    significant bit of the stack pointer. *)

type region = User | Kernel

type t

val create : unit -> t

val kernel_base_vpn : int
(** First virtual page of the top half (0xffff800000000000 onwards,
    folded to an int vpn). *)

val map_user : t -> vpn:int -> pages:int -> first_pfn:int -> unit
(** User pages: writable, user-accessible, never global. *)

val map_kernel : t -> global:bool -> vpn:int -> pages:int -> first_pfn:int -> unit
(** Kernel pages: [global] is the platform policy knob of Section 4.3 —
    true on X-Containers, false on stock paravirtualized Linux. *)

val user_pages : t -> int
val kernel_pages : t -> int
val kernel_global : t -> bool
(** True if every kernel-half mapping has the global bit set. *)
