(** Load-balancer data paths (Figure 9).

    Docker platforms balance with a user-space proxy (HAProxy); an
    X-Container can additionally load kernel modules, enabling IPVS — a
    kernel-level balancer with two modes:

    - NAT: requests {i and responses} pass through the balancer, which
      rewrites addresses in the kernel;
    - Direct routing: the balancer only forwards requests; backends
      answer clients directly, so response bytes never touch it.

    The cost functions return the balancer's work per request; whether
    the response transits the balancer decides where the bottleneck sits
    (Section 5.7). *)

type mode =
  | Haproxy  (** user-space proxy: full accept/connect per request *)
  | Ipvs_nat
  | Ipvs_direct_routing

val requires_kernel_modules : mode -> bool
(** True for both IPVS modes — impossible under Docker without root and
    host-network access (Section 5.7). *)

val response_via_balancer : mode -> bool

val balancer_cost_ns :
  mode -> syscall_entry_ns:float -> request_bytes:int -> response_bytes:int -> float
(** Per-request CPU cost on the balancer.  [syscall_entry_ns] is the
    platform's syscall entry cost — HAProxy being user-space pays it on
    every accept/read/connect/write, IPVS pays none. *)
