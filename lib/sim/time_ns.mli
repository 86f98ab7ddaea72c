(** Simulated time.

    All simulated time in the reproduction is carried as a [float] count of
    nanoseconds since the start of the simulation.  Nanoseconds are the
    natural unit for the cost model: the cheapest architectural event we
    account for (a patched system call, i.e. a function call) costs a few
    nanoseconds, and the longest experiments run for a few simulated
    seconds, so the double-precision mantissa is never stressed. *)

type t = float
(** Time, in nanoseconds. *)
