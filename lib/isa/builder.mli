(** Synthetic program builder.

    Real containerised applications reach the kernel through a small set of
    system-call wrapper shapes; Table 1 of the paper is determined by which
    shapes an application's binary contains.  This module assembles
    programs out of the four shapes the paper discusses:

    - {b Glibc_small}: [mov $n,%eax; syscall] — the 5+2-byte pattern that
      ABOM handles with a single 7-byte replacement (Figure 2, case 1);
    - {b Glibc_wide}: [mov $n,%rax; syscall] — the 7+2-byte pattern that
      needs the two-phase 9-byte replacement;
    - {b Go_stack}: [mov 0x8(%rsp),%rax; syscall] — the Go runtime pattern
      (Figure 2, case 2), syscall number loaded from the caller's stack;
    - {b Cancellable}: a libpthread-style cancellable syscall where the
      [mov] is {i not} adjacent to the [syscall] — ABOM's online patcher
      cannot recognise it (this is why MySQL sits at 44.6% in Table 1),
      only the offline tool can. *)

type style =
  | Glibc_small
  | Glibc_wide
  | Go_stack
  | Cancellable
  | Exotic
      (** a wrapper shape no patching tool handles: the residual
          unpatchable fraction in Table 1 *)

val style_to_string : style -> string

type site = {
  index : int;  (** position in the input list *)
  style : style;
  sysno : int;
  wrapper_off : int;  (** offset of the wrapper's first instruction *)
  syscall_off : int;  (** offset of the [syscall] instruction *)
}

type program = {
  image : Image.t;
  entry : int;  (** offset of [main] *)
  sites : site list;
}

val build : ?loop_iterations:int -> (style * int) list -> program
(** [build wrappers] lays out one wrapper function per list element plus a
    [main] that calls each wrapper once, in order, then halts.  Re-running
    [main] models a workload that keeps invoking the same sites.

    With [loop_iterations], [main] wraps the call sequence in an
    rcx-counted loop, so one execution performs the whole workload — the
    shape a real benchmark binary has, and the one that exercises ABOM's
    patch-once/run-many behaviour without resetting the machine.  Raises
    [Invalid_argument] when the call block exceeds [jnz]'s one-byte reach
    (more than ~20 wrappers). *)
