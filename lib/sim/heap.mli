(** Binary min-heap keyed by [float] priorities.

    The event queue of the simulation kernels is the hottest data
    structure in the simulator, so this is an array-based binary heap
    specialised to float keys (no comparator closure on the hot path)
    stored as parallel arrays: an unboxed [float array] of keys, an
    [int array] of insertion sequence numbers, and an ['a array] of
    payloads — no per-entry record allocation, and no placeholder
    element is ever fabricated.  Ties are broken by insertion order so
    the simulation is deterministic even when many events share a
    timestamp.

    Removing the minimum is split into {!top}, {!drop} and a read of
    {!keys}, so a dispatch loop allocates nothing: a [float] returned
    from a function, or an option around it, would be boxed. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val top : 'a t -> 'a
(** The minimum-key element (FIFO among equal keys), left in place.
    Raises [Invalid_argument] on an empty heap. *)

val drop : 'a t -> unit
(** Remove the {!top} element.  Raises [Invalid_argument] on an empty
    heap. *)

val keys : 'a t -> float array
(** The heap's own key storage, for reading the minimum key unboxed:
    when the heap is non-empty, slot [0] holds the key of {!top}.
    Read it, never write it.  A {!push} may replace the array, so fetch
    it again after pushing. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** Non-destructive: all elements in {!top} order (for tests). *)
