(* Entry point: every suite of the reproduction's test battery. *)

let () =
  Alcotest.run "xcontainers"
    (Test_sim.suites @ Test_isa.suites @ Test_isa_loops.suites
   @ Test_signals.suites @ Test_xelf.suites @ Test_abom.suites
   @ Test_profile.suites @ Test_concurrency.suites @ Test_mem.suites
   @ Test_cpu.suites @ Test_os.suites @ Test_net.suites @ Test_hypervisor.suites
   @ Test_platforms.suites @ Test_apps.suites @ Test_core.suites
   @ Test_extensions.suites @ Test_cluster_sim.suites @ Test_coldstart.suites
   @ Test_os_net_state.suites @ Test_httpd.suites @ Test_fuzz.suites
   @ Test_apps_extra.suites @ Test_apps_eleven.suites
   @ Test_substrate_extra.suites @ Test_inventory.suites @ Test_shapes.suites
   @ Test_parallel.suites @ Test_sharding.suites @ Test_trace.suites
   @ Test_tails.suites @ Test_metrics.suites
   @ Test_lb.suites @ Test_cluster_fluid.suites @ Test_suite.suites
   @ Test_causal.suites)
