(** Privilege modes of the modelled machine.

    On x86-64 Xen PV, ring 0 belongs to the hypervisor and {i both} the
    guest kernel and user processes share ring 3 (Section 4.1) — the mode
    here is therefore a logical mode, and the X-Kernel's trick of telling
    guest-kernel from guest-user context by the stack pointer's top bit is
    modelled in {!val:of_stack_pointer}. *)

type t =
  | Hypervisor  (** ring 0: Xen / X-Kernel *)
  | Guest_kernel  (** the guest kernel / X-LibOS *)
  | Guest_user  (** application code *)

val to_string : t -> string

val record_switch : ?at:float -> from_:t -> to_:t -> unit -> unit
(** Emit a ["mode-switch"] trace instant for one privilege transition
    (no-op with tracing disabled).  The cost paths emit these
    alongside their ["syscall-entry"] spans so a trace diff can count
    ring crossings per configuration. *)
