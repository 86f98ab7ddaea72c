(* Tests for the CPU cost model and the privilege modes. *)

open Xc_cpu

let test_costs_validate () =
  match Costs.validate () with
  | Ok () -> ()
  | Error violations ->
      Alcotest.failf "cost model violations: %s" (String.concat "; " violations)

let test_cost_orderings () =
  (* The orderings every reproduced figure relies on. *)
  Alcotest.(check bool) "function call cheapest" true
    (Costs.function_call_ns < Costs.xc_fast_syscall_ns);
  Alcotest.(check bool) "xc fast < clear guest" true
    (Costs.xc_fast_syscall_ns < Costs.clear_guest_syscall_ns);
  Alcotest.(check bool) "trap < xen pv forward" true
    (Costs.syscall_trap_ns < Costs.xen_pv_syscall_ns);
  Alcotest.(check bool) "xen pv < gvisor ptrace" true
    (Costs.xen_pv_syscall_ns < Costs.gvisor_syscall_ns);
  Alcotest.(check bool) "xc event < xen event" true
    (Costs.xc_event_direct_ns < Costs.xen_event_channel_ns);
  Alcotest.(check bool) "xc iret < iret hypercall" true
    (Costs.xc_iret_ns < Costs.iret_hypercall_ns);
  Alcotest.(check bool) "nested exit > first-level exit" true
    (Costs.nested_vmexit_ns > Costs.vmexit_ns)

let test_headline_ratio () =
  let docker =
    Costs.syscall_trap_ns +. Costs.seccomp_audit_ns
    +. (2. *. Costs.kpti_transition_ns)
    +. Costs.kpti_tlb_side_ns +. Costs.cheap_syscall_work_ns
  in
  let xc = Costs.xc_fast_syscall_ns +. Costs.cheap_syscall_work_ns in
  let r = docker /. xc in
  Alcotest.(check bool) "headline ~27x" true (r > 20. && r < 32.)

let test_mode_names () =
  Alcotest.(check string) "hypervisor" "hypervisor" (Mode.to_string Mode.Hypervisor)

let suites =
  [
    ( "cpu.costs",
      [
        Alcotest.test_case "validate" `Quick test_costs_validate;
        Alcotest.test_case "orderings" `Quick test_cost_orderings;
        Alcotest.test_case "headline 27x" `Quick test_headline_ratio;
      ] );
    ( "cpu.core",
      [
        Alcotest.test_case "modes" `Quick test_mode_names;
      ] );
  ]
