(** The kernel-customization case study of Section 5.7 (Figure 9).

    Three single-worker NGINX servers behind one load balancer, all on
    one physical machine.  Docker can only run a user-space balancer
    (HAProxy); X-Containers can also insert the IPVS kernel modules —
    NAT mode first, then direct routing, which moves the bottleneck from
    the balancer to the web servers. *)

type setup =
  | Docker_haproxy
  | Xcontainer_haproxy
  | Xcontainer_ipvs_nat
  | Xcontainer_ipvs_dr

val setup_name : setup -> string
val all : setup list

type result = {
  setup : setup;
  throughput_rps : float;
  lb_service_ns : float;  (** balancer cost per request *)
  bottleneck : [ `Balancer | `Backends ];
}

val run : setup -> result
