(** A tiny interpreter for the modelled x86-64 subset.

    The interpreter exists to make ABOM testable the way the paper argues
    for it: a patched binary must be {i semantically equivalent} to the
    original, including when another thread observes the intermediate
    state of a two-phase patch and when control jumps into the middle of a
    rewritten instruction pair.  Platform models drive it via hooks:

    - [on_syscall_trap] fires when a [syscall] instruction executes (this
      is where the X-Kernel runs ABOM before forwarding the call);
    - [vsyscall_lookup] resolves [callq *abs] targets to LibOS entry
      points (the vsyscall entry table of Section 4.4);
    - [libos_skip_check] implements the X-LibOS syscall-handler check that
      skips a trailing [syscall]/[jmp] after a phase-1 9-byte patch;
    - [invalid_opcode_fixup] implements the X-Kernel trap handler that
      backs the instruction pointer up over the [0x60 0xff] tail of a
      7-byte replacement. *)

type entry = Fixed of int | Dynamic
(** A vsyscall-table entry: [Fixed n] is the handler for syscall [n];
    [Dynamic] reads the syscall number from the caller's stack (the Go
    pattern). *)

type event = { kind : [ `Trap | `Fast ]; sysno : int; site : int }
(** One system-call invocation: [`Trap] went through the [syscall]
    instruction, [`Fast] through a patched function call.  [site] is the
    code offset identifying the call site. *)

type exit_reason = Halted | Fuel_exhausted | Fault of string

type t

type config = {
  vsyscall_lookup : int64 -> entry option;
  on_syscall_trap : (t -> sysno:int -> syscall_off:int -> unit) option;
  libos_skip_check : bool;
  invalid_opcode_fixup : bool;
}

val xcontainer_config :
  ?on_syscall_trap:(t -> sysno:int -> syscall_off:int -> unit) ->
  lookup:(int64 -> entry option) ->
  unit ->
  config
(** Skip-check and invalid-opcode fixup enabled, as on the X-Kernel. *)

val create : ?config:config -> Image.t -> entry:int -> t
(** [config] defaults to a plain CPU: no vsyscall table, no hooks, no
    fixups. *)

val image : t -> Image.t
val rax : t -> int64

val run : ?fuel:int -> t -> exit_reason
(** Execute until halt, fault, or [fuel] instructions (default 1_000_000). *)

val step_once : t -> exit_reason option
(** Execute exactly one instruction; [None] while still running.  Lets
    tests interleave several vCPUs over one shared image — the
    concurrency scenario ABOM's atomic-patch argument is about. *)

(** {2 Signals}

    Figure 2's second example is glibc's [__restore_rt]: the signal
    trampoline whose [mov $0xf,%rax; syscall] pair ABOM rewrites with the
    two-phase 9-byte replacement.  To prove that rewrite safe we model
    the return half of the protocol: a delivered signal's frame holds the
    interrupted rip under the restorer address the handler's [ret] lands
    on, and syscall 15 ([rt_sigreturn]) — whether it arrives by trap or
    through the patched vsyscall path — pops the frame and resumes the
    interrupted context. *)

val reset : t -> entry:int -> unit
(** Rewind registers/stack to run again; the (possibly patched) image and
    the recorded events are kept. *)

val events : t -> event list
(** All system-call events since creation or [clear_events], in order. *)

val clear_events : t -> unit
(** Empty the log and zero the {!syscall_count}s. *)

val syscall_count : t -> [ `Trap | `Fast ] -> int
(** How many {!events} are of this kind, without building the list. *)

val syscall_numbers : t -> int list
(** Just the syscall-number sequence (for equivalence checks). *)

val steps : t -> int
(** Instructions executed since creation. *)
