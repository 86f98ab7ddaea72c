(** Log-bucketed latency histogram (HDR-style).

    Values are bucketed with a fixed relative precision: each power of two
    is divided into a constant number of sub-buckets, so percentile queries
    are accurate to a few percent over twelve orders of magnitude — enough
    to report the latency distributions behind Figure 3(b). *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one (non-negative) sample. *)

val count : t -> int

val of_samples : float list -> t
(** Histogram over a finite sample list — e.g. the request totals of a
    trace attribution, feeding a percentile cut. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]]; returns a representative value
    of the bucket containing that rank.  [0.] when empty. *)

val percentiles : t -> float array -> float array
(** [percentiles t ps] is [Array.map (percentile t) ps], found in one
    scan of the buckets.  [ps] must be ascending.
    @raise Invalid_argument if it is not. *)

val percentile_floor : t -> float -> float
(** Like {!percentile}, but returns the {e lower bound} of the bucket
    containing the rank instead of its midpoint.  Every sample at or
    above the rank is [>=] this value, so it is the right cut for
    selecting a tail by [>=] — the midpoint can sit above every sample
    in its own bucket and select nothing.  [0.] when empty. *)

val mean : t -> float
val merge : t -> t -> t

val equal : t -> t -> bool
(** Bucket-wise equality (count included, [sum] excluded — float
    addition is not associative, so the sum of the same samples merged
    in a different grouping may differ in the last bits; every
    percentile query reads only buckets and count). *)
