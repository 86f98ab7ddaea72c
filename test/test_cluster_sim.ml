(* Tests for the event-driven scheduler simulation and its agreement
   with the analytic Figure 8 model. *)

module CS = Xc_platforms.Cluster_sim

let run mode n = CS.run (CS.default_config mode ~containers:n)

let test_deterministic () =
  let a = run CS.Flat 8 and b = run CS.Flat 8 in
  Alcotest.(check (float 1e-9)) "same throughput" a.throughput_rps b.throughput_rps;
  Alcotest.(check int) "same switches" a.container_switches b.container_switches

let test_demand_bound_region () =
  (* Small N: both schedulers deliver the same (demand-limited)
     throughput — the flat curve and the hierarchical curve start
     together, as in Figure 8. *)
  let flat = run CS.Flat 16 and hier = run CS.Hierarchical 16 in
  Alcotest.(check bool) "equal when demand-bound" true
    (Float.abs (flat.throughput_rps -. hier.throughput_rps)
     /. flat.throughput_rps
    < 0.03);
  (* Demand for 16 containers x 5 conns over a ~25.5ms cycle. *)
  Alcotest.(check bool) "plausible absolute" true
    (flat.throughput_rps > 2_000. && flat.throughput_rps < 4_000.)

let test_hierarchy_batches_switches () =
  (* The emergent mechanism: the two-level scheduler performs several
     times fewer cross-container switches because a core drains a
     container's processes before moving on. *)
  List.iter
    (fun n ->
      let flat = run CS.Flat n and hier = run CS.Hierarchical n in
      Alcotest.(check bool)
        (Printf.sprintf "fewer container switches at N=%d" n)
        true
        (hier.container_switches * 2 < flat.container_switches))
    [ 16; 64 ]

let test_crossover_at_scale () =
  let flat = run CS.Flat 400 and hier = run CS.Hierarchical 400 in
  let gain = hier.throughput_rps /. flat.throughput_rps in
  Alcotest.(check bool)
    (Printf.sprintf "hierarchical wins at 400 (got %.2fx)" gain)
    true
    (gain > 1.05 && gain < 1.35);
  Alcotest.(check bool) "flat burns way more switch time" true
    (flat.switch_overhead_ns > 3. *. hier.switch_overhead_ns);
  Alcotest.(check bool) "both near saturation" true
    (flat.busy_fraction > 0.85 && hier.busy_fraction > 0.85)

let test_agrees_with_analytic_model () =
  (* Cross-validation: the simulated hierarchical throughput at N=400
     should land within 25% of the analytic Figure 8 X-Container point
     (they share cost constants but differ in method). *)
  let sim = (run CS.Hierarchical 400).throughput_rps in
  let analytic =
    (Xc_apps.Scalability.run Xc_platforms.Config.X_container ~containers:400)
      .throughput_rps
  in
  let ratio = sim /. analytic in
  Alcotest.(check bool)
    (Printf.sprintf "sim within 25%% of analytic (%.2f)" ratio)
    true
    (ratio > 0.75 && ratio < 1.25)

let test_latency_grows_with_load () =
  let low = run CS.Hierarchical 16 and high = run CS.Hierarchical 400 in
  Alcotest.(check bool) "p99 grows when saturated" true
    (high.p99_latency_ns > low.p99_latency_ns);
  Alcotest.(check bool) "latency at least the rtt" true
    (low.mean_latency_ns >= 25e6)

let test_stage_validation () =
  let config = { (CS.default_config CS.Flat ~containers:1) with stage_cpu_ns = [||] } in
  Alcotest.check_raises "no stages" (Invalid_argument "Cluster_sim.run: stages")
    (fun () -> ignore (CS.run config))

let test_words_per_event () =
  let platform =
    Xc_platforms.Platform.create
      (Xc_platforms.Config.make Xc_platforms.Config.X_container)
  in
  let config =
    {
      (CS.config_of_platform ~containers:100 ~connections:1 platform) with
      CS.duration_ns = 1e8;
      warmup_ns = 2e7;
    }
  in
  Test_sim.check_words_budget ~budget:35 (fun () -> CS.run config)

let suites =
  [
    ( "cluster_sim",
      [
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "demand-bound region" `Slow test_demand_bound_region;
        Alcotest.test_case "hierarchy batches switches" `Slow
          test_hierarchy_batches_switches;
        Alcotest.test_case "crossover at 400" `Slow test_crossover_at_scale;
        Alcotest.test_case "agrees with analytic fig8" `Slow
          test_agrees_with_analytic_model;
        Alcotest.test_case "latency grows" `Slow test_latency_grows_with_load;
        Alcotest.test_case "validation" `Quick test_stage_validation;
        Alcotest.test_case "words per event" `Quick test_words_per_event;
      ] );
  ]
