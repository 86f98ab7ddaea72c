(** The MySQL model.

    MySQL is the paper's ABOM outlier: its hot syscalls go through
    libpthread's {i cancellable} wrappers, which the online patcher cannot
    recognise — 44.6% automatic coverage, 92.2% after offline-patching two
    libpthread locations (Table 1, Section 5.2). *)

val abom_coverage_auto : float

val mixed_query : offline_patched:bool -> Recipe.t
(** Equal read/write probability (the Figure 6c page). *)

val server :
  cores:int -> Xc_platforms.Platform.t -> Xc_platforms.Closed_loop.server
(** The {!mixed_query} server at the automatic (unpatched) coverage. *)
