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

(* A config outside the envelope is refused up front, naming the
   field, instead of returning NaN (no cores, an empty window), raising
   from deep inside the run (a negative core count, an event in the
   past) or running silently (a negative stage cost). *)
let test_stage_validation () =
  let config = { (CS.default_config CS.Flat ~containers:1) with stage_cpu_ns = [||] } in
  Alcotest.check_raises "no stages" (Invalid_argument "Cluster_sim.run: stages")
    (fun () -> ignore (CS.run config));
  let base = CS.default_config CS.Flat ~containers:4 in
  let refused ?(run = CS.run) fn msg config =
    Alcotest.check_raises msg
      (Invalid_argument (Printf.sprintf "Cluster_sim.%s: %s" fn msg))
      (fun () -> ignore (run config))
  in
  refused "run" "pcpus must be >= 1 (got 0)" { base with pcpus = 0 };
  refused "run" "pcpus must be >= 1 (got -1)" { base with pcpus = -1 };
  refused "run" "containers must be >= 0 (got -1)" { base with containers = -1 };
  refused "run" "connections_per_container must be >= 0 (got -1)"
    { base with connections_per_container = -1 };
  refused "run" "duration_ns must be finite and > 0 (got 0)" { base with duration_ns = 0. };
  refused "run" "duration_ns must be finite and > 0 (got inf)"
    { base with duration_ns = Float.infinity };
  refused "run" "warmup_ns must be finite and >= 0 (got -1)" { base with warmup_ns = -1. };
  refused "run" "client_rtt_ns must be finite and >= 0 (got -1e+06)"
    { base with client_rtt_ns = -1e6 };
  refused "run" "process_switch_ns must be finite and >= 0 (got nan)"
    { base with process_switch_ns = Float.nan };
  refused "run" "stage_cpu_ns.(1) must be finite and >= 0 (got nan)"
    { base with stage_cpu_ns = [| 60_000.; Float.nan |] };
  refused "run" "stage_cpu_ns.(0) must be finite and >= 0 (got -1000)"
    { base with stage_cpu_ns = [| -1000.; 290_000. |] };
  refused "run" "request_mech must be empty or one entry per stage (got 1 for 4 stages)"
    { base with request_mech = [| [ ("cpu", "user", 1.) ] |] };
  refused "run" "container_switch_ns must be finite and >= 0 (got -5)"
    { base with container_switch_ns = (fun ~runnable:_ -> -5.) };
  refused ~run:CS.run_fluid "run_fluid" "pcpus must be >= 1 (got 0)" { base with pcpus = 0 }

(* xcperf's cluster-hedge cell at 100 containers.  What is left per
   event is [Heap.push]'s boxed key and [Histogram.add]'s boxed
   sample; a hedged pick adds its clone-set list and k-slot buffer. *)
let words_config () =
  let platform =
    Xc_platforms.Platform.create
      (Xc_platforms.Config.make Xc_platforms.Config.X_container)
  in
  {
    (CS.config_of_platform ~containers:100 ~connections:1 platform) with
    CS.duration_ns = 1e8;
    warmup_ns = 2e7;
  }

let test_words_per_event () =
  let config = words_config () in
  Test_sim.check_words_budget ~budget:3 (fun () -> CS.run config)

let test_hedged_words_per_event () =
  let config =
    { (words_config ()) with CS.lb = Some { Xc_lb.Policy.kind = Least_loaded; clones = 2 } }
  in
  Test_sim.check_words_budget ~budget:4 (fun () -> CS.run config)

(* ---------------- The kernel against the closure reference ---------------- *)

let stage_gen =
  QCheck.Gen.(
    oneof [ float_range 0. 1_499.; float_range 0. 49_999.; float_range 0. 399_999. ])

(* Up to four stages costed to reach both the 1us slice floor and the
   [remaining > 1.] cut; an RTT of 0 runs the whole exchange through
   the same-instant lane; any policy with up to four clones. *)
let config_gen =
  QCheck.Gen.(
    let* mode = oneofl [ CS.Flat; CS.Hierarchical ] in
    let* containers = int_range 1 24 in
    let* connections_per_container = int_range 0 4 in
    let* pcpus = int_range 1 6 in
    let* stage_cpu_ns = array_size (int_range 1 4) stage_gen in
    let* client_rtt_ns = oneof [ return 0.; float_range 0. 2e6 ] in
    let* process_switch_ns = float_range 0. 5_000. in
    let* duration_ns = float_range 2e6 22e6 in
    let* warmup_ns = float_range 0. 5e6 in
    let* lb =
      oneof
        [
          return None;
          (let* kind = oneofl Xc_lb.Policy.all_kinds in
           let* clones = int_range 1 (Stdlib.min 4 containers) in
           return (Some { Xc_lb.Policy.kind; clones }));
        ]
    in
    let* with_mech = bool in
    let* seed = int_range 0 10_000 in
    let request_mech =
      if with_mech then
        Array.map
          (fun ns -> [ ("cpu", "user", ns /. 2.); ("syscall-work", "kernel", ns /. 2.) ])
          stage_cpu_ns
      else [||]
    in
    let base = CS.default_config mode ~containers in
    return
      {
        base with
        CS.pcpus;
        connections_per_container;
        stage_cpu_ns;
        client_rtt_ns;
        process_switch_ns;
        duration_ns;
        warmup_ns;
        seed;
        request_mech;
        lb;
      })

let print_config (c : CS.config) =
  Printf.sprintf
    "{mode=%s; pcpus=%d; containers=%d; connections=%d; stages=[%s]; rtt=%h; \
     pswitch=%h; duration=%h; warmup=%h; seed=%d; mech=%b; lb=%s}"
    (match c.CS.mode with CS.Flat -> "Flat" | CS.Hierarchical -> "Hierarchical")
    c.CS.pcpus c.CS.containers c.CS.connections_per_container
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") c.CS.stage_cpu_ns)))
    c.CS.client_rtt_ns c.CS.process_switch_ns c.CS.duration_ns c.CS.warmup_ns c.CS.seed
    (c.CS.request_mech <> [||])
    (match c.CS.lb with
    | None -> "none"
    | Some { Xc_lb.Policy.kind; clones } ->
        Printf.sprintf "%s x%d" (Xc_lb.Policy.kind_to_string kind) clones)

let result_bits (r : CS.result) =
  Printf.sprintf "%h %h %h %d %d %h %h" r.CS.throughput_rps r.CS.mean_latency_ns
    r.CS.p99_latency_ns r.CS.container_switches r.CS.process_switches
    r.CS.switch_overhead_ns r.CS.busy_fraction

(* The run's result bits and dispatch count; traced, also its
   marshalled capture and telemetry. *)
let observe ~traced run config =
  let r, n, t = Ref_loops.observe ~traced (fun () -> run config) in
  (result_bits r, n, t)

let kernel_differential =
  let gen = QCheck.Gen.(pair config_gen (frequency [ (1, return true); (3, return false) ])) in
  let print (c, traced) = Printf.sprintf "%s traced=%b" (print_config c) traced in
  QCheck.Test.make ~name:"matches the closure reference" ~count:200
    (QCheck.make ~print gen)
    (fun (config, traced) ->
      let ra, na, ta = observe ~traced CS.run config in
      let rb, nb, tb = observe ~traced Ref_cluster.run config in
      if ra <> rb then QCheck.Test.fail_reportf "results %s vs reference %s" ra rb;
      if na <> nb then QCheck.Test.fail_reportf "%d dispatches vs reference %d" na nb;
      if ta <> tb then QCheck.Test.fail_reportf "captured trace or telemetry differs";
      true)

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
        Alcotest.test_case "hedged words per event" `Quick test_hedged_words_per_event;
        QCheck_alcotest.to_alcotest kernel_differential;
      ] );
  ]
