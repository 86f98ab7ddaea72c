(** The vsyscall system-call entry table.

    X-LibOS stores a table of system-call entry points in the vsyscall
    page, mapped at the same fixed virtual address in every process
    (Section 4.4).  Patched call sites go through
    [callq *0xffffffffff600000+8n]; the Go-style dynamic entry that reads
    the syscall number from the stack lives at [0xffffffffff600c08]. *)

type t

val dynamic_address : int64
(** [0xffffffffff600c08]: the entry used by 7-byte case-2 replacements. *)

val max_syscalls : int

val create : unit -> t

val address_of : t -> int -> int64
(** [address_of t sysno] is the table slot for [sysno]; registers the
    entry.  Raises [Invalid_argument] outside [\[0, max_syscalls)]. *)

val lookup : t -> int64 -> Xc_isa.Machine.entry option
(** Resolve a call target back to an entry; [None] for foreign addresses.
    A fixed slot's answer is built on its first lookup and shared after,
    so a patched call allocates nothing. *)

val registered : t -> int list
(** Syscall numbers whose fixed entries have been handed out (sorted). *)
