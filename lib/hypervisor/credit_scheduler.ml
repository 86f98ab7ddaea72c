let switch_cost_ns ~runnable_vcpus =
  let ns =
    Xc_cpu.Costs.context_switch_base_ns
    +. (Xc_cpu.Costs.runqueue_ns_per_task *. float_of_int runnable_vcpus)
  in
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.span ~cat:"ctx-switch" ~name:"vcpu" ns;
  ns
