(** A (flattened) page table: virtual page number -> {!Pte.t}.

    Real x86-64 tables are 4-level radix trees; for cost purposes we track
    the entry count and expose the mapping, and charge walk depth in the
    CPU cost model instead of materialising intermediate levels. *)

type t

val create : unit -> t

val map : t -> vpn:int -> Pte.t -> unit
val lookup : t -> vpn:int -> Pte.t option
val entry_count : t -> int

val global_count : t -> int
(** Number of mapped pages with the global bit set. *)

val iter : t -> (int -> Pte.t -> unit) -> unit

val map_range : t -> vpn:int -> pages:int -> first_pfn:int -> flags:(pfn:int -> Pte.t) -> unit
(** Map [pages] consecutive virtual pages starting at [vpn] to consecutive
    frames starting at [first_pfn]. *)
