(* Tests for the exokernel layer: the hypercall surface, domains, event
   channels, the PV MMU's batched page-table updates as a PV fork pays
   them, and the credit scheduler's switch cost. *)

open Xc_hypervisor

(* ---------------- Hypercalls ---------------- *)

let test_hypercall_surface () =
  (* The Section 3.4 argument: a small, enumerable attack surface. *)
  Alcotest.(check int) "eleven hypercalls" 11 (Hypercall.surface_size ());
  Alcotest.(check bool) "far below Linux's ~350 syscalls" true
    (Hypercall.surface_size () < Xkernel.linux_host_syscall_surface / 10)

(* ---------------- Domains and the X-Kernel ---------------- *)

let test_domain_validation () =
  Alcotest.check_raises "zero vcpus"
    (Invalid_argument "Domain.create: need at least one vcpu") (fun () ->
      ignore (Domain.create ~kind:Domain.Domu ~vcpus:0 ~memory_mb:128))

let test_xkernel_memory_gate () =
  let xk = Xkernel.create ~pcpus:4 ~memory_mb:2048 () in
  (* Dom0 holds 1024MB; one 512MB guest fits, the second does not. *)
  (match Xkernel.create_domain xk ~vcpus:1 ~memory_mb:512 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Xkernel.create_domain xk ~vcpus:1 ~memory_mb:1024 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must run out of memory");
  Alcotest.(check int) "free accounted" 512 (Xkernel.free_memory_mb xk)

let test_xkernel_destroy_returns_memory () =
  let xk = Xkernel.create ~pcpus:4 ~memory_mb:4096 () in
  let d =
    match Xkernel.create_domain xk ~vcpus:2 ~memory_mb:1024 with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  Xkernel.destroy_domain xk d;
  Alcotest.(check int) "memory back" (4096 - 1024) (Xkernel.free_memory_mb xk);
  Alcotest.(check bool) "domain shut down" true (Domain.state d = Domain.Shutdown)

let test_tcb_comparison () =
  let xc = Xcontainers.Security.profile_of Xc_platforms.Config.X_container in
  Alcotest.(check bool) "TCB 50x smaller than a Linux host" true
    (xc.tcb_kloc * 50 < Xkernel.linux_host_tcb_kloc)

let test_dom0_protected () =
  let xk = Xkernel.create ~pcpus:4 ~memory_mb:4096 () in
  Alcotest.check_raises "cannot destroy dom0" (Invalid_argument "cannot destroy Dom0")
    (fun () -> Xkernel.destroy_domain xk (Xkernel.dom0 xk))

(* ---------------- Event channels ---------------- *)

let test_event_channel_basic () =
  let ec = Event_channel.create Event_channel.Via_hypervisor in
  Event_channel.bind ec ~port:3;
  Event_channel.bind ec ~port:1;
  Alcotest.(check bool) "bound" true (Event_channel.is_bound ec ~port:3);
  ignore (Event_channel.notify ec ~port:3);
  ignore (Event_channel.notify ec ~port:1);
  ignore (Event_channel.notify ec ~port:1);
  (* Pending is a set, delivered in port order. *)
  Alcotest.(check (list int)) "pending" [ 1; 3 ] (Event_channel.pending ec);
  let seen = ref [] in
  let _cost = Event_channel.deliver_pending ec (fun p -> seen := p :: !seen) in
  Alcotest.(check (list int)) "delivered in order" [ 1; 3 ] (List.rev !seen);
  Alcotest.(check int) "count" 2 (Event_channel.delivered_count ec);
  Alcotest.(check (list int)) "cleared" [] (Event_channel.pending ec)

let test_event_channel_unbound () =
  let ec = Event_channel.create Event_channel.Via_hypervisor in
  Alcotest.check_raises "unbound" (Invalid_argument "Event_channel.notify: unbound port")
    (fun () -> ignore (Event_channel.notify ec ~port:9))

let test_event_delivery_costs () =
  (* Section 4.2: direct user-mode delivery must beat the upcall. *)
  let deliver mode =
    let ec = Event_channel.create mode in
    Event_channel.bind ec ~port:1;
    ignore (Event_channel.notify ec ~port:1);
    Event_channel.deliver_pending ec (fun _ -> ())
  in
  Alcotest.(check bool) "direct cheaper" true
    (deliver Event_channel.Direct_user_mode < deliver Event_channel.Via_hypervisor)

(* ---------------- PV MMU ---------------- *)

(* What a PV guest's fork pays on top of a stock fork for the same
   pages: its page-table entries go through validated mmu_update
   hypercalls, [Costs.pv_mmu_batch_entries] entries per batch. *)
let pv_extra_ns ~pages =
  let fork config = Xc_os.Kernel.fork_cost_ns (Xc_os.Kernel.create ~config ()) ~pages in
  fork Xc_os.Kernel.xlibos_config -. fork Xc_os.Kernel.(config (create ()))

let batch_ns = Xc_cpu.Costs.hypercall_ns +. Xc_cpu.Costs.pv_mmu_update_ns

let test_pv_mmu_valid_batch () =
  let entries = Xc_cpu.Costs.pv_mmu_batch_entries in
  Alcotest.(check (float 1e-6))
    "one full batch: one hypercall, one update, every entry validated"
    (batch_ns +. (float_of_int entries *. Xc_cpu.Costs.pv_validation_per_entry_ns))
    (pv_extra_ns ~pages:entries)

let test_pv_mmu_batch_cost_scales () =
  let entries = Xc_cpu.Costs.pv_mmu_batch_entries in
  Alcotest.(check (float 1e-6)) "one entry past a full batch opens the next"
    (batch_ns +. Xc_cpu.Costs.pv_validation_per_entry_ns)
    (pv_extra_ns ~pages:(entries + 1) -. pv_extra_ns ~pages:entries);
  Alcotest.(check bool) "bigger batches cost more" true
    (pv_extra_ns ~pages:(100 * entries) > pv_extra_ns ~pages:entries)

(* ---------------- Credit scheduler ---------------- *)

let test_credit_switch_cost_monotone () =
  Alcotest.(check bool) "longer runqueue dearer" true
    (Credit_scheduler.switch_cost_ns ~runnable_vcpus:400
    > Credit_scheduler.switch_cost_ns ~runnable_vcpus:4)

let suites =
  [
    ( "hypervisor.hypercall",
      [
        Alcotest.test_case "surface" `Quick test_hypercall_surface;
      ] );
    ( "hypervisor.xkernel",
      [
        Alcotest.test_case "domain validation" `Quick test_domain_validation;
        Alcotest.test_case "memory gate" `Quick test_xkernel_memory_gate;
        Alcotest.test_case "destroy returns memory" `Quick
          test_xkernel_destroy_returns_memory;
        Alcotest.test_case "TCB comparison" `Quick test_tcb_comparison;
        Alcotest.test_case "dom0 protected" `Quick test_dom0_protected;
      ] );
    ( "hypervisor.events",
      [
        Alcotest.test_case "bind/notify/deliver" `Quick test_event_channel_basic;
        Alcotest.test_case "unbound" `Quick test_event_channel_unbound;
        Alcotest.test_case "delivery costs (S4.2)" `Quick test_event_delivery_costs;
      ] );
    ( "hypervisor.pv_mmu",
      [
        Alcotest.test_case "valid batch" `Quick test_pv_mmu_valid_batch;
        Alcotest.test_case "batch cost scales" `Quick test_pv_mmu_batch_cost_scales;
      ] );
    ( "hypervisor.credit",
      [
        Alcotest.test_case "switch cost monotone" `Quick
          test_credit_switch_cost_monotone;
      ] );
  ]
