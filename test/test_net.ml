(* Tests for the network substrate: links, per-platform packet paths, the
   TCP/iperf model and the load-balancer modes of Figure 9. *)

open Xc_net

let test_link_math () =
  let l = Link.create ~latency_ns:1000. ~gbps:10. () in
  (* 1250 bytes at 10 Gb/s = 1 us of serialisation. *)
  Alcotest.(check (float 1.)) "serialize" 1000. (Link.serialize_ns l ~bytes_len:1250);
  Alcotest.(check (float 1.)) "transfer" 2000. (Link.transfer_ns l ~bytes_len:1250);
  Alcotest.(check (float 1.)) "capacity" 1.25e9 (Link.capacity_bytes_per_s l);
  Alcotest.check_raises "bad gbps" (Invalid_argument "Link.create: gbps") (fun () ->
      ignore (Link.create ~gbps:0. ()))

let test_packets_for () =
  Alcotest.(check int) "one packet min" 1 (Netpath.packets_for ~bytes_len:0 ~mss:1448);
  Alcotest.(check int) "exact" 1 (Netpath.packets_for ~bytes_len:1448 ~mss:1448);
  Alcotest.(check int) "round up" 2 (Netpath.packets_for ~bytes_len:1449 ~mss:1448);
  Alcotest.(check int) "many" 46 (Netpath.packets_for ~bytes_len:65536 ~mss:1448)

let test_hop_ordering () =
  let cost h = Netpath.hop_cost_ns h ~bytes_len:1448 in
  Alcotest.(check bool) "gvisor netstack dearest" true
    (cost Netpath.Gvisor_netstack > cost Netpath.Split_driver);
  Alcotest.(check bool) "split driver dearer than iptables hop" true
    (cost Netpath.Split_driver > cost Netpath.Iptables_forward);
  Alcotest.(check bool) "nested exit is expensive" true
    (cost Netpath.Nested_exit > cost Netpath.Native_stack)

let test_path_cost_additive () =
  let hops = [ Netpath.Native_stack; Netpath.Iptables_forward ] in
  let sum =
    Netpath.hop_cost_ns Netpath.Native_stack ~bytes_len:500
    +. Netpath.hop_cost_ns Netpath.Iptables_forward ~bytes_len:500
  in
  Alcotest.(check (float 1e-6)) "additive" sum (Netpath.path_cost_ns hops ~bytes_len:500)

let test_message_cost_packetised () =
  let hops = [ Netpath.Native_stack ] in
  let one = Netpath.message_cost_ns hops ~bytes_len:1000 ~mss:1448 in
  let three = Netpath.message_cost_ns hops ~bytes_len:4000 ~mss:1448 in
  Alcotest.(check bool) "3 packets cost more" true (three > 2. *. one)

(* ---------------- TCP model ---------------- *)

let test_tcp_wire_bound () =
  let r =
    Tcp_model.steady_throughput ~per_packet_cpu_ns:100. ~link:Link.ten_gbe ()
  in
  Alcotest.(check bool) "wire bottleneck" true (r.bottleneck = `Wire);
  Alcotest.(check (float 0.01)) "10G" 10. r.throughput_gbps

let test_tcp_cpu_bound () =
  let r =
    Tcp_model.steady_throughput ~per_packet_cpu_ns:10_000. ~link:Link.ten_gbe ()
  in
  Alcotest.(check bool) "cpu bottleneck" true (r.bottleneck = `Cpu);
  Alcotest.(check bool) "below wire" true (r.throughput_gbps < 10.)

let test_tcp_window_bound () =
  let r =
    Tcp_model.steady_throughput ~per_packet_cpu_ns:10. ~window_bytes:65536
      ~rtt_ns:10e6 ~link:Link.ten_gbe ()
  in
  Alcotest.(check bool) "window bottleneck" true (r.bottleneck = `Window);
  (* 64KB / 10ms = 52.4 Mb/s *)
  Alcotest.(check (float 0.01)) "window math" 0.0524 r.throughput_gbps

(* ---------------- Load balancer ---------------- *)

let test_lb_modes () =
  Alcotest.(check bool) "haproxy needs no modules" false
    (Load_balancer.requires_kernel_modules Load_balancer.Haproxy);
  Alcotest.(check bool) "ipvs needs modules" true
    (Load_balancer.requires_kernel_modules Load_balancer.Ipvs_nat);
  Alcotest.(check bool) "nat sees responses" true
    (Load_balancer.response_via_balancer Load_balancer.Ipvs_nat);
  Alcotest.(check bool) "dr bypasses responses" false
    (Load_balancer.response_via_balancer Load_balancer.Ipvs_direct_routing)

let test_lb_cost_ordering () =
  let cost mode entry =
    Load_balancer.balancer_cost_ns mode ~syscall_entry_ns:entry ~request_bytes:200
      ~response_bytes:1024
  in
  (* With Docker's patched syscall entry, HAProxy is the dearest; DR the
     cheapest; and cheaper syscalls shrink HAProxy's cost. *)
  Alcotest.(check bool) "haproxy > nat" true (cost Load_balancer.Haproxy 475. > cost Load_balancer.Ipvs_nat 475.);
  Alcotest.(check bool) "nat > dr" true
    (cost Load_balancer.Ipvs_nat 475. > cost Load_balancer.Ipvs_direct_routing 475.);
  Alcotest.(check bool) "fast syscalls help haproxy" true
    (cost Load_balancer.Haproxy 12. < cost Load_balancer.Haproxy 475.);
  (* IPVS runs in the kernel: the syscall entry cost is irrelevant. *)
  Alcotest.(check (float 1e-9)) "ipvs ignores entry cost"
    (cost Load_balancer.Ipvs_nat 12.) (cost Load_balancer.Ipvs_nat 475.)

(* Backend choice in front of the balancer is an Xc_lb.Policy: plain
   round robin cycles the backends and refuses an empty pool. *)
let test_lb_round_robin () =
  let pol = Xc_lb.Policy.create ~backends:3 Xc_lb.Policy.Round_robin in
  Alcotest.(check (list int))
    "round robin" [ 0; 1; 2; 0; 1; 2 ]
    (List.init 6 (fun _ -> Xc_lb.Policy.pick pol));
  Alcotest.check_raises "no backends"
    (Invalid_argument "Xc_lb.Policy: no backends") (fun () ->
      ignore (Xc_lb.Policy.create ~backends:0 Xc_lb.Policy.Round_robin))

let suites =
  [
    ( "net.link",
      [
        Alcotest.test_case "math" `Quick test_link_math;
        Alcotest.test_case "packets_for" `Quick test_packets_for;
      ] );
    ( "net.path",
      [
        Alcotest.test_case "hop ordering" `Quick test_hop_ordering;
        Alcotest.test_case "additive" `Quick test_path_cost_additive;
        Alcotest.test_case "packetised" `Quick test_message_cost_packetised;
      ] );
    ( "net.tcp",
      [
        Alcotest.test_case "wire bound" `Quick test_tcp_wire_bound;
        Alcotest.test_case "cpu bound" `Quick test_tcp_cpu_bound;
        Alcotest.test_case "window bound" `Quick test_tcp_window_bound;
      ] );
    ( "net.lb",
      [
        Alcotest.test_case "modes" `Quick test_lb_modes;
        Alcotest.test_case "cost ordering" `Quick test_lb_cost_ordering;
        Alcotest.test_case "round robin" `Quick test_lb_round_robin;
      ] );
  ]
