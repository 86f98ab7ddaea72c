(** Binary images: executable code with pages and symbols.

    An image is the code segment of a simulated process.  ABOM patches it
    in place, which requires the CR0.WP dance the paper describes: code
    pages are mapped read-only, so the patcher must explicitly override
    write protection, and doing so marks the page dirty (Section 4.4:
    "the page table dirty bit will be set for read-only pages"). *)

type symbol = { name : string; offset : int; size : int }

type t

val create : ?base:int64 -> size:int -> unit -> t
(** Fresh image of [size] zero bytes; every page starts read-only. *)

val size : t -> int

val base : t -> int64
(** Load address of offset 0 (default [0x400000], the classic ELF base). *)

val code : t -> Bytes.t
(** The raw code bytes (shared, not a copy).  Read them, never write
    them: change code through {!write} or {!emit}, which keep the decode
    cache of {!insn_at} coherent. *)

val addr_of_offset : t -> int -> int64

val page_size : int
val page_count : t -> int

val set_page_writable : t -> page:int -> bool -> unit
val page_writable : t -> page:int -> bool
val page_dirty : t -> page:int -> bool
val dirty_pages : t -> int list

val write : t -> off:int -> Bytes.t -> wp_override:bool -> (unit, string) result
(** Store bytes at [off].  Fails with [Error _] if any touched page is
    read-only and [wp_override] is false.  Always marks touched pages
    dirty when they are read-only and the write proceeds.  A zero-length
    write in bounds touches no page: [Ok ()], nothing marked dirty. *)

val emit : t -> off:int -> Insn.t -> int
(** Assemble one instruction at [off] (build-time; ignores protection);
    returns bytes written. *)

val emit_list : t -> off:int -> Insn.t list -> int
(** Assemble a sequence; returns the offset one past the last byte. *)

val insn_at : t -> int -> Insn.t * int
(** Decode the instruction at an offset.  Each offset is decoded once
    and the result kept in the image, one page of cache at a time on the
    page's first decode; a cached read allocates nothing.  {!write} and
    {!emit} drop the entries a store can change, so every machine
    sharing the image sees a patch at once. *)

val add_symbol : t -> name:string -> offset:int -> size:int -> unit
val find_symbol : t -> string -> symbol option
val symbols : t -> symbol list

val disassemble_range : t -> off:int -> len:int -> string
