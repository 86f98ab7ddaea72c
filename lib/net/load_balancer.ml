type mode = Haproxy | Ipvs_nat | Ipvs_direct_routing

let mode_to_string = function
  | Haproxy -> "haproxy"
  | Ipvs_nat -> "ipvs-nat"
  | Ipvs_direct_routing -> "ipvs-dr"

let requires_kernel_modules = function
  | Haproxy -> false
  | Ipvs_nat | Ipvs_direct_routing -> true

let response_via_balancer = function
  | Haproxy | Ipvs_nat -> true
  | Ipvs_direct_routing -> false

(* HAProxy without backend keep-alive handles each request with ~14
   syscalls across the two connections (accept, epolls, reads, connect,
   writes, closes) plus user-space event-loop and header-parsing work. *)
let haproxy_syscalls = 14.

let balancer_cost_ns mode ~syscall_entry_ns ~request_bytes ~response_bytes =
  let copy_cost n = 0.05 *. float_of_int n in
  let ns =
    match mode with
  | Haproxy ->
      (haproxy_syscalls *. (syscall_entry_ns +. 350.))
      +. copy_cost (request_bytes + response_bytes)
      +. 4500. (* user-space event loop and header parsing *)
  | Ipvs_nat ->
      (* No syscalls, but every packet in both directions runs the
         netfilter hooks, the connection-table lookup and the address
         rewrite - IPVS NAT keeps most of the per-packet stack cost,
         which is why the paper measures only +12% over HAProxy. *)
      (4. *. 2200.) +. copy_cost (request_bytes + response_bytes)
    | Ipvs_direct_routing ->
        (* Forward path only: requests are rewritten towards a backend;
           responses never come back through the balancer. *)
        1000. +. copy_cost request_bytes
  in
  Xc_sim.Metrics.counter_incr ~cat:"net" ~name:"lb-requests";
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.span ~cat:"net.lb" ~name:(mode_to_string mode) ns;
  ns
