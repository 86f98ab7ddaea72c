(* All constants in nanoseconds.  See the .mli for calibration sources. *)

let cache_line_refill_ns = 30.

(* Syscall paths. *)
let function_call_ns = 2.
let xc_fast_syscall_ns = 12.
let xc_forwarded_syscall_ns = 250.
let syscall_trap_ns = 100.
let cheap_syscall_work_ns = 6.
let seccomp_audit_ns = 55.
let kpti_transition_ns = 130.
let kpti_tlb_side_ns = 60.
let clear_guest_syscall_ns = 22.
let gvisor_syscall_ns = 6200.
let xen_pv_syscall_ns = 1050.
let xen_xpti_extra_ns = 450.

(* Interrupts and events. *)
let interrupt_delivery_ns = 600.
let xen_event_channel_ns = 900.
let xc_event_direct_ns = 120.
let iret_hypercall_ns = 300.
let xc_iret_ns = 25.

(* Hypervisor. *)
let hypercall_ns = 180.
let nested_vmexit_ns = 4200.
let vmexit_ns = 900.
let pv_mmu_update_ns = 320.
let pv_validation_per_entry_ns = 45.
let pv_mmu_batch_entries = 512

(* Scheduling and processes. *)
let context_switch_base_ns = 1100.
let pv_context_switch_extra_ns = 2600.
let cr3_switch_ns = 130.
let tlb_refill_user_ns = 450.
let tlb_refill_kernel_ns = 400.
let runqueue_ns_per_task = 4.
let llc_pressure_threshold_tasks = 1000
let llc_pressure_full_tasks = 3000
let llc_refill_penalty_ns = 90_000.
let fork_base_ns = 45_000.
let fork_per_page_ns = 55.
let exec_base_ns = 180_000.
let process_pages = 640

(* Network. *)
let netdev_xmit_ns = 1900.
let bridge_hop_ns = 1500.
let split_driver_hop_ns = 2100.
let gvisor_net_ns = 9000.
let nested_io_ns = 5200.
let lan_rtt_ns = 28_000.

let validate () =
  let errors = ref [] in
  let check name cond = if not cond then errors := name :: !errors in
  let docker_patched =
    syscall_trap_ns +. seccomp_audit_ns
    +. (2. *. kpti_transition_ns)
    +. kpti_tlb_side_ns
  in
  let cheap = cheap_syscall_work_ns in
  (* Headline 27x: patched Docker vs X-Container, end-to-end cheap syscall. *)
  check "xc 20-30x faster than patched docker"
    (let r = (docker_patched +. cheap) /. (xc_fast_syscall_ns +. cheap) in
     r > 20. && r < 32.);
  (* gVisor at 7-9% of Docker throughput. *)
  check "gvisor at 5-10% of docker"
    (let r = docker_patched /. gvisor_syscall_ns in
     r > 0.05 && r < 0.10);
  (* Clear within ~1.6x of XC. *)
  check "xc 1.4-1.8x faster than clear"
    (let r = (clear_guest_syscall_ns +. cheap) /. (xc_fast_syscall_ns +. cheap) in
     r > 1.3 && r < 1.9);
  check "fast syscall beats every trap path"
    (xc_fast_syscall_ns < clear_guest_syscall_ns
    && clear_guest_syscall_ns < syscall_trap_ns
    && syscall_trap_ns < docker_patched
    && docker_patched < xen_pv_syscall_ns
    && xen_pv_syscall_ns < gvisor_syscall_ns);
  check "forwarded xc syscall cheaper than xen pv forward"
    (xc_forwarded_syscall_ns < xen_pv_syscall_ns);
  check "xc event delivery beats xen event channel"
    (xc_event_direct_ns < xen_event_channel_ns);
  check "xc iret beats iret hypercall" (xc_iret_ns < iret_hypercall_ns);
  check "nested vmexit dominates first-level" (nested_vmexit_ns > vmexit_ns);
  check "global-bit saves kernel TLB refill" (tlb_refill_kernel_ns > 0.);
  if !errors = [] then Ok () else Error (List.rev !errors)
