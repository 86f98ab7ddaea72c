(** Memory density: how many X-Containers fit on one host.

    Section 4.5 flags the prototype's static per-container reservation
    as a limitation and points at ballooning and transcendent memory as
    the known fixes.  This experiment quantifies them: pack a 96 GB host
    with 128 MB X-Containers under three policies —

    - [Static]: the prototype as evaluated (Figure 8's regime);
    - [Balloon]: idle containers ballooned down to the 64 MB floor the
      paper measured X-Containers to work at (footnote, Section 5.6);
    - [Balloon_tmem]: ballooning plus a shared tmem pool absorbing the
      reclaimed pages as shared page cache, recovering part of the I/O
      cost of running smaller. *)

type policy = Static | Balloon | Balloon_tmem

val policy_name : policy -> string
val all_policies : policy list

type result = {
  policy : policy;
  containers : int;  (** how many booted before memory ran out *)
  active_fraction : float;  (** containers busy at any instant *)
  tmem_pool_mb : int;  (** pages pooled for sharing (tmem only) *)
  est_page_cache_hit_gain : float;
      (** fraction of storage reads served from the shared pool *)
}

val run : ?active_fraction:float -> policy -> result
(** A 96 GB host of 128 MB reservations; by default 20% of containers
    are active (the intermittent serverless regime of the paper's
    motivation). *)

val density_gain : result -> result -> float
(** containers(b) / containers(a). *)
