(** System-call entry costs per platform.

    The single most important function of the reproduction: how many
    nanoseconds it takes to get from a user-space syscall instruction into
    kernel (or LibOS) code and back, for each platform and Meltdown-patch
    state.  Figure 4 is this function plotted; everything else inherits
    it. *)

val entry_ns : Config.t -> float
(** Cost of one syscall entry+exit, {i excluding} in-kernel work.  For
    X-Containers this is the fast path (ABOM-patched site); use
    {!effective_entry_ns} to account for coverage. *)

val unpatched_site_ns : Config.t -> float
(** X-Containers: cost at a site ABOM has {i not} converted (trap into
    the X-Kernel, bounced to X-LibOS without an address-space switch).
    Equal to [entry_ns] on every other platform. *)

val effective_entry_ns : Config.t -> abom_coverage:float -> float
(** Average entry cost when [abom_coverage] of dynamic syscall
    invocations go through patched sites (Table 1 gives per-application
    coverage).  Ignores coverage on non-X-Container platforms. *)

val interrupt_ns : Config.t -> float
(** Cost of delivering one interrupt/event to the container's kernel. *)

val graphene_entry_ns : multiprocess:bool -> float
(** Graphene's libOS call cost; multi-process adds IPC coordination. *)
