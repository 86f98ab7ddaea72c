(** Per-packet network processing paths.

    A packet entering or leaving a container traverses a platform-specific
    stack of hops; the hop set is what distinguishes the platforms'
    network performance in Figures 3, 5 (iperf) and 9:

    - Docker: native kernel stack + an iptables port-forwarding hop;
    - Xen-Container / X-Container: guest stack + split-driver hop to the
      driver domain (Xen-Blanket in the cloud) + iptables;
    - gVisor: the Sentry's user-space netstack;
    - Clear: guest stack + nested-virtualization exit per packet batch. *)

type hop =
  | Native_stack  (** host/guest kernel TCP/IP *)
  | Iptables_forward  (** the clouds' port-forwarding NAT (Section 5.3) *)
  | Split_driver  (** Xen front/back ring crossing *)
  | Gvisor_netstack
  | Nested_exit  (** Clear's nested-virt I/O penalty *)
  | Wire of Link.t

val hop_cost_ns : hop -> bytes_len:int -> float

val path_cost_ns : hop list -> bytes_len:int -> float
(** Sum of hop costs for one packet of [bytes_len]. *)

val packets_for : bytes_len:int -> mss:int -> int
(** Number of MSS-sized packets needed. *)

val message_cost_ns : hop list -> bytes_len:int -> mss:int -> float
(** Cost to move a whole message, packetised at [mss]. *)
