(** Simulated time.

    All simulated time in the reproduction is carried as a [float] count of
    nanoseconds since the start of the simulation.  Nanoseconds are the
    natural unit for the cost model: the cheapest architectural event we
    account for (a patched system call, i.e. a function call) costs a few
    nanoseconds, and the longest experiments run for a few simulated
    seconds, so the double-precision mantissa is never stressed. *)

type t = float
(** Time, in nanoseconds. *)

val zero : t

val ns : float -> t
(** [ns x] is [x] nanoseconds. *)

val us : float -> t
(** [us x] is [x] microseconds. *)

val ms : float -> t
(** [ms x] is [x] milliseconds. *)

val s : float -> t
(** [s x] is [x] seconds. *)

val to_us : t -> float
val to_s : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val compare : t -> t -> int
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Pretty-print with an automatically chosen unit, e.g. ["1.25us"]. *)

val to_string : t -> string
