module Config = Xc_platforms.Config
module Platform = Xc_platforms.Platform
module Lb = Xc_net.Load_balancer

type setup =
  | Docker_haproxy
  | Xcontainer_haproxy
  | Xcontainer_ipvs_nat
  | Xcontainer_ipvs_dr

let setup_name = function
  | Docker_haproxy -> "Docker (haproxy)"
  | Xcontainer_haproxy -> "X-Container (haproxy)"
  | Xcontainer_ipvs_nat -> "X-Container (ipvs NAT)"
  | Xcontainer_ipvs_dr -> "X-Container (ipvs Route)"

let all = [ Docker_haproxy; Xcontainer_haproxy; Xcontainer_ipvs_nat; Xcontainer_ipvs_dr ]

let backends = 3

type result = {
  setup : setup;
  throughput_rps : float;
  lb_service_ns : float;
  bottleneck : [ `Balancer | `Backends ];
}

let platform_of setup =
  let runtime =
    match setup with
    | Docker_haproxy -> Config.Docker
    | Xcontainer_haproxy | Xcontainer_ipvs_nat | Xcontainer_ipvs_dr ->
        Config.X_container
  in
  Platform.create (Config.make ~cloud:Local_cluster ~meltdown_patched:true runtime)

let lb_mode = function
  | Docker_haproxy | Xcontainer_haproxy -> Lb.Haproxy
  | Xcontainer_ipvs_nat -> Lb.Ipvs_nat
  | Xcontainer_ipvs_dr -> Lb.Ipvs_direct_routing

let request_bytes = 180
let response_bytes = 1024

(* HAProxy without backend keep-alive sets up and tears down a TCP
   connection to the backend per request; Docker's bridge additionally
   runs conntrack on every new flow, and with the Meltdown patch every
   interrupt pays KPTI transitions. *)
let per_connection_ns setup =
  match setup with
  | Docker_haproxy -> 20_000.
  | Xcontainer_haproxy -> 4_000.
  | Xcontainer_ipvs_nat -> 1_000.
  | Xcontainer_ipvs_dr -> 0.

(* Everything sits on one physical machine: the LB-facing hops are the
   container-to-container paths, not the wire.  Docker crosses
   veth/bridge/iptables; X-Containers cross Xen-Blanket rings directly. *)
let internal_hops setup : Xc_net.Netpath.hop list =
  match setup with
  | Docker_haproxy -> [ Native_stack; Iptables_forward ]
  | Xcontainer_haproxy | Xcontainer_ipvs_nat | Xcontainer_ipvs_dr ->
      [ Split_driver ]

let lb_service_ns setup =
  let platform = platform_of setup in
  let mode = lb_mode setup in
  let core =
    Lb.balancer_cost_ns mode
      ~syscall_entry_ns:(Platform.syscall_entry_ns platform)
      ~request_bytes ~response_bytes
  in
  let traversal bytes = Xc_net.Netpath.path_cost_ns (internal_hops setup) ~bytes_len:bytes in
  let stack =
    if Lb.response_via_balancer mode then
      (* request in + out, response in + out *)
      (2. *. traversal request_bytes) +. (2. *. traversal response_bytes)
    else 2. *. traversal request_bytes
  in
  let n_irqs = if Lb.response_via_balancer mode then 3 else 1 in
  let irqs = float_of_int n_irqs *. Platform.irq_ns platform in
  core +. stack +. irqs +. per_connection_ns setup

let run setup =
  let lb = lb_service_ns setup in
  let lb_capacity = 1e9 /. lb in
  let backend_platform =
    Platform.create (Config.make ~cloud:Local_cluster ~meltdown_patched:true
       (match setup with
       | Docker_haproxy -> Config.Docker
       | _ -> Config.X_container))
  in
  let nginx_service = Recipe.service_ns backend_platform Nginx.static_request_wrk in
  let backend_capacity = float_of_int backends *. 1e9 /. nginx_service in
  let throughput = Float.min lb_capacity backend_capacity in
  {
    setup;
    throughput_rps = throughput;
    lb_service_ns = lb;
    bottleneck = (if lb_capacity <= backend_capacity then `Balancer else `Backends);
  }
