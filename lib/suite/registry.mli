(** The named suites: [smoke], [macro] and [fig9-matrix], runnable by
    the generic driver alone as {!Run.suite} (`xc suite run NAME`,
    `bench --suite NAME`).  Validated at module init — a malformed
    entry raises [Invalid_argument] before anything can run. *)

val named : (string * Suite.t) list
val named_names : string list
val find_named : string -> Suite.t option
