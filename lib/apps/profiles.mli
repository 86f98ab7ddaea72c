(** Table 1: per-application ABOM coverage, measured for real.

    Each profile describes one of the paper's twelve applications by its
    mix of syscall-wrapper shapes (which depends on the implementation
    language/runtime: glibc wrappers for C, the stack-loaded pattern for
    Go, cancellable libpthread wrappers where threads block) and how often
    the workload's dynamic syscalls go through each site.

    [measure] then does what the paper's counter in the X-Kernel does:
    builds the synthetic binary, runs the workload on the ISA machine
    with ABOM live-patching on syscall traps, and reports what fraction
    of syscall invocations ended up as function calls. *)

type profile = {
  name : string;
  implementation : string;  (** language/runtime, as in Table 1 *)
  benchmark : string;  (** the workload generator named in Table 1 *)
  sites : (Xc_isa.Builder.style * int * float) list;
      (** wrapper style, syscall number, workload weight *)
  paper_reduction : float;  (** the fraction Table 1 reports *)
  paper_manual_reduction : float option;
      (** Table 1's parenthetical for MySQL *)
}

val all : profile list
(** The twelve rows of Table 1, in paper order. *)

val find : string -> profile option

type measurement = {
  profile : profile;
  invocations : int;
  auto_reduction : float;  (** online ABOM only *)
  manual_reduction : float;  (** offline tool applied first *)
  sites_patched : int;
  cmpxchg_ops : int;
}

val measure : ?invocations:int -> ?seed:int -> profile -> measurement
(** Run the workload ([invocations] syscalls drawn by site weight; default
    50_000) on the ISA machine under the X-Kernel's ABOM. *)
