(** Live migration (Section 3.3).

    One of the paper's arguments for the Xen substrate: X-Containers
    inherit live migration "for free", which plain containers lack.  We
    model classic pre-copy: iteratively transfer dirty pages while the
    guest runs, then stop-and-copy the residual working set.

    Rounds converge when the dirty rate is below the transfer rate;
    otherwise the algorithm caps the rounds and eats a larger downtime —
    the classic trade-off the tests pin down. *)

type params = {
  memory_mb : int;
  dirty_pages_per_s : float;  (** how fast the workload redirties pages *)
  link_gbps : float;
  max_rounds : int;  (** pre-copy rounds before forcing stop-and-copy *)
  stop_threshold_pages : int;  (** stop-and-copy when residual below this *)
}

val default_params : memory_mb:int -> params
(** 1 Gb/s migration link, 30 rounds, 2k-page threshold. *)

type round = { index : int; pages_sent : int; duration_ns : float }

type result = {
  rounds : round list;
  total_pages_sent : int;
  downtime_ns : float;  (** the stop-and-copy blackout *)
  total_ns : float;
  converged : bool;  (** reached the threshold before [max_rounds] *)
}

val migrate : params -> result
