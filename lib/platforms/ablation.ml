module Costs = Xc_cpu.Costs

type knob =
  | Full
  | No_abom
  | No_global_bit
  | No_direct_events
  | No_user_iret
  | Stock_pv
  | Smp_disabled

let knob_name = function
  | Full -> "full X-Container"
  | No_abom -> "- ABOM (syscalls trap)"
  | No_global_bit -> "- global bit"
  | No_direct_events -> "- direct event delivery"
  | No_user_iret -> "- user-mode iret"
  | Stock_pv -> "stock PV (all off)"
  | Smp_disabled -> "+ SMP disabled (custom)"

let all =
  [ Full; No_abom; No_global_bit; No_direct_events; No_user_iret; Stock_pv; Smp_disabled ]

type request_shape = {
  syscalls : int;
  irqs : int;
  process_switches : int;
  abom_coverage : float;
}

let shape ~syscalls ~irqs ~hops ~coverage =
  { syscalls; irqs; process_switches = hops; abom_coverage = coverage }

(* Per-mechanism deltas, derived from the same constants the platforms
   use, so the ablation stays consistent with the main results. *)

let abom_delta shape =
  (* Patched sites fall back to the forwarded path. *)
  let fast =
    Syscall_path.effective_entry_ns
      (Config.make Config.X_container)
      ~abom_coverage:shape.abom_coverage
  in
  float_of_int shape.syscalls *. (Costs.xc_forwarded_syscall_ns -. fast)

let global_bit_delta shape =
  (* Every process switch refills the kernel TLB footprint again. *)
  float_of_int shape.process_switches *. Costs.tlb_refill_kernel_ns

let events_delta shape =
  float_of_int shape.irqs
  *. (Costs.xen_event_channel_ns -. Costs.xc_event_direct_ns)

let iret_delta shape =
  (* One return per interrupt delivery. *)
  float_of_int shape.irqs *. (Costs.iret_hypercall_ns -. Costs.xc_iret_ns)

let smp_delta shape =
  (* Locking/shootdown tax saved on the kernel work of every syscall
     (the 30ns smp_tax in the kernel model). *)
  -.(float_of_int shape.syscalls *. 30.)

let service_delta_ns knob shape =
  match knob with
  | Full -> 0.
  | No_abom -> abom_delta shape
  | No_global_bit -> global_bit_delta shape
  | No_direct_events -> events_delta shape
  | No_user_iret -> iret_delta shape
  | Stock_pv ->
      abom_delta shape +. global_bit_delta shape +. events_delta shape
      +. iret_delta shape
  | Smp_disabled -> smp_delta shape

let relative_throughput knob shape ~base_service_ns =
  base_service_ns /. (base_service_ns +. service_delta_ns knob shape)
