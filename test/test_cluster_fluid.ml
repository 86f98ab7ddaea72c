(* The fluid fidelity tier of Cluster_sim, proven three ways: unit
   sanity for the birth-death closed-network solver it rests on
   (Xc_lb.Oracle.closed_loop_mva), a QCheck differential holding the
   fluid predictions against the exact event-driven tier across random
   modes, scales and load levels, and a shape test that the mixed
   tier's sampled exact slice still feeds the trace/tails pipeline.

   The differential tolerances are regime-aware, matching the measured
   agreement grid (docs/CLUSTER.md): at light load (rho* < 0.45) and
   deep saturation (rho* > 1.9) the tiers agree within a few percent;
   around the scheduling knee the deterministic exact sim phase-locks
   into convoys the stochastic product-form model cannot see, so the
   bound there is loose (worst measured: -12.8% on the mean). *)

module CS = Xc_platforms.Cluster_sim
module Oracle = Xc_lb.Oracle
module Trace = Xc_trace.Trace
module Profile = Xc_trace.Profile

(* ---------------- closed_loop_mva sanity ---------------- *)

let test_mva_light_load () =
  (* One customer never queues: mean = Z + S exactly. *)
  let r =
    Oracle.closed_loop_mva ~servers:4 ~clients:1 ~service_ns:1e6 ~think_ns:1e7
  in
  Alcotest.(check (float 1.)) "mean = Z + S" 1.1e7 r.Oracle.mean_ns;
  Alcotest.(check bool) "utilization is tiny" true (r.Oracle.utilization < 0.05)

let test_mva_saturation () =
  (* M >> c: the station pins at X = c/S and Little's law fixes R. *)
  let c = 8 and s = 1e6 and z = 1e6 in
  let r =
    Oracle.closed_loop_mva ~servers:c ~clients:10_000 ~service_ns:s ~think_ns:z
  in
  Alcotest.(check bool) "X -> c/S" true
    (Float.abs ((r.Oracle.throughput_per_ns *. s /. float_of_int c) -. 1.)
    < 0.01);
  Alcotest.(check bool) "utilization pinned" true (r.Oracle.utilization > 0.99);
  (* Little: M = X * mean. *)
  Alcotest.(check bool) "Little's law" true
    (Float.abs ((r.Oracle.throughput_per_ns *. r.Oracle.mean_ns /. 10_000.) -. 1.)
    < 1e-6)

let test_mva_monotone_in_clients () =
  let mean m =
    (Oracle.closed_loop_mva ~servers:16 ~clients:m ~service_ns:5e5
       ~think_ns:2.5e7)
      .Oracle.mean_ns
  in
  let prev = ref 0. in
  List.iter
    (fun m ->
      let v = mean m in
      Alcotest.(check bool)
        (Printf.sprintf "mean non-decreasing at M=%d" m)
        true
        (v >= !prev -. 1e-6);
      prev := v)
    [ 1; 10; 100; 500; 1_000; 5_000; 20_000 ]

let test_mva_zero_think () =
  (* Z = 0 degenerates: every customer always at the station. *)
  let light =
    Oracle.closed_loop_mva ~servers:8 ~clients:4 ~service_ns:1e6 ~think_ns:0.
  in
  Alcotest.(check (float 1e-3)) "M <= c: mean = S" 1e6 light.Oracle.mean_ns;
  let sat =
    Oracle.closed_loop_mva ~servers:8 ~clients:80 ~service_ns:1e6 ~think_ns:0.
  in
  Alcotest.(check (float 1e-3)) "M > c: mean = M*S/c" 1e7 sat.Oracle.mean_ns

let test_mva_cap_asymptote () =
  (* Past the 4M-customer cap the saturation asymptote takes over; it
     must join the solved regime continuously (both sides are pinned
     at X = c/S long before the cap). *)
  let at m =
    (Oracle.closed_loop_mva ~servers:16 ~clients:m ~service_ns:5e5
       ~think_ns:2.5e7)
      .Oracle.throughput_per_ns
  in
  Alcotest.(check bool) "X continuous across the cap" true
    (Float.abs ((at 4_000_000 /. at 4_000_001) -. 1.) < 1e-3)

let test_mva_invalid_args () =
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument ("Xc_lb.Oracle.closed_loop_mva: " ^ name)) (fun () ->
          ignore (f ())))
    [
      ( "servers",
        fun () ->
          Oracle.closed_loop_mva ~servers:0 ~clients:1 ~service_ns:1.
            ~think_ns:1. );
      ( "clients",
        fun () ->
          Oracle.closed_loop_mva ~servers:1 ~clients:0 ~service_ns:1.
            ~think_ns:1. );
      ( "service_ns",
        fun () ->
          Oracle.closed_loop_mva ~servers:1 ~clients:1 ~service_ns:0.
            ~think_ns:1. );
      ( "think_ns",
        fun () ->
          Oracle.closed_loop_mva ~servers:1 ~clients:1 ~service_ns:1.
            ~think_ns:(-1.) );
    ]

(* ---------------- the fluid-vs-exact differential ---------------- *)

(* The offered-load estimate the tolerances key on: rho* = M*S /
   (c*(Z+S)) — demand over capacity if requests never queued.  Uses
   the same floor on stage costs as the fluid tier's base demand. *)
let rho_star (config : CS.config) =
  let s =
    Array.fold_left (fun acc x -> acc +. Float.max x 1000.) 0. config.stage_cpu_ns
  in
  let m = float_of_int (config.containers * config.connections_per_container) in
  m *. s /. (float_of_int config.pcpus *. (config.client_rtt_ns +. s))

let strict_regime rho = rho < 0.45 || rho > 1.9

let rel_err a b = Float.abs ((a -. b) /. b)

let fluid_differential_prop =
  let gen =
    QCheck.Gen.(
      let* mode = oneofl [ CS.Flat; CS.Hierarchical ] in
      let* containers = oneofl [ 4; 8; 16; 32; 64; 100; 150; 200; 300; 400 ] in
      let* connections = int_range 1 5 in
      let+ seed = int_range 0 1000 in
      (mode, containers, connections, seed))
  in
  let print (mode, n, c, seed) =
    Printf.sprintf "%s n=%d c=%d seed=%d"
      (match mode with CS.Flat -> "flat" | CS.Hierarchical -> "hier")
      n c seed
  in
  QCheck.Test.make ~name:"fluid tracks exact per regime" ~count:10
    (QCheck.make ~print gen)
    (fun (mode, containers, connections, seed) ->
      let config =
        {
          (CS.default_config mode ~containers) with
          CS.connections_per_container = connections;
          seed = seed;
        }
      in
      let exact = CS.run config and fluid = CS.run_fluid config in
      let rho = rho_star config in
      let mean_tol, util_tol =
        if strict_regime rho then (0.08, 0.08) else (0.25, 0.30)
      in
      if rel_err fluid.CS.mean_latency_ns exact.CS.mean_latency_ns > mean_tol
      then
        QCheck.Test.fail_reportf
          "mean: fluid %.3fms vs exact %.3fms (%.1f%% > %.0f%%) at rho*=%.2f"
          (fluid.CS.mean_latency_ns /. 1e6)
          (exact.CS.mean_latency_ns /. 1e6)
          (100. *. rel_err fluid.CS.mean_latency_ns exact.CS.mean_latency_ns)
          (100. *. mean_tol) rho;
      if Float.abs (fluid.CS.busy_fraction -. exact.CS.busy_fraction) > util_tol
      then
        QCheck.Test.fail_reportf
          "utilization: fluid %.2f vs exact %.2f (tol %.2f) at rho*=%.2f"
          fluid.CS.busy_fraction exact.CS.busy_fraction util_tol rho;
      true)

let test_strict_regime_anchors () =
  (* The acceptance points: a light and a saturated scale where the
     fluid mean must sit within 5% of exact (the ISSUE's bound; the
     QCheck property uses 8% to absorb random-seed wobble). *)
  List.iter
    (fun (mode, n, c) ->
      let config =
        {
          (CS.default_config mode ~containers:n) with
          CS.connections_per_container = c;
        }
      in
      let exact = CS.run config and fluid = CS.run_fluid config in
      Alcotest.(check bool)
        (Printf.sprintf "mean within 5%% at n=%d c=%d (got %+.2f%%)" n c
           (100.
           *. (fluid.CS.mean_latency_ns -. exact.CS.mean_latency_ns)
           /. exact.CS.mean_latency_ns))
        true
        (rel_err fluid.CS.mean_latency_ns exact.CS.mean_latency_ns < 0.05);
      (* Utilization gets the strict-regime bound (8 points, matching
         the QCheck property): at deep saturation the exact tier's
         busy denominator includes a drain RTT the fluid tier does not
         model, so it reads ~0.94 where fluid pins at 1.0. *)
      Alcotest.(check bool)
        (Printf.sprintf
           "utilization within 8 points at n=%d c=%d (fluid %.3f exact %.3f)" n
           c fluid.CS.busy_fraction exact.CS.busy_fraction)
        true
        (Float.abs (fluid.CS.busy_fraction -. exact.CS.busy_fraction) < 0.08))
    [
      (CS.Hierarchical, 8, 5);
      (CS.Hierarchical, 400, 5);
      (CS.Flat, 400, 5);
      (CS.Hierarchical, 64, 1);
    ]

let test_fluid_deterministic_and_seedless () =
  (* The fluid tier is pure arithmetic: identical across calls and
     independent of the seed (the differential can therefore vary the
     seed freely — only the exact side moves). *)
  let config s = { (CS.default_config CS.Hierarchical ~containers:32) with CS.seed = s } in
  let a = CS.run_fluid (config 17) and b = CS.run_fluid (config 18) in
  Alcotest.(check (float 0.)) "same mean across seeds" a.CS.mean_latency_ns
    b.CS.mean_latency_ns;
  Alcotest.(check (float 0.)) "same throughput" a.CS.throughput_rps
    b.CS.throughput_rps;
  Alcotest.(check bool) "p99 is NaN (no per-request machinery)" true
    (Float.is_nan a.CS.p99_latency_ns)

let test_run_fidelity_dispatch () =
  let config = CS.default_config CS.Hierarchical ~containers:16 in
  let e = CS.run_fidelity CS.Exact config and e' = CS.run config in
  Alcotest.(check (float 0.)) "Exact = run" e.CS.mean_latency_ns e'.CS.mean_latency_ns;
  let f = CS.run_fidelity CS.Fluid config and f' = CS.run_fluid config in
  Alcotest.(check (float 0.)) "Fluid = run_fluid" f.CS.mean_latency_ns
    f'.CS.mean_latency_ns;
  Alcotest.check_raises "Mixed sample_rate < 1 rejected"
    (Invalid_argument "Cluster_sim.run_mixed: sample_rate must be >= 1")
    (fun () -> ignore (CS.run_fidelity (CS.Mixed { sample_rate = 0 }) config))

let test_mixed_combines_tiers () =
  let config = CS.default_config CS.Hierarchical ~containers:64 in
  let mixed = CS.run_fidelity (CS.Mixed { sample_rate = 8 }) config in
  let fluid = CS.run_fluid config in
  (* Means/throughput/utilization come from the fluid tier... *)
  Alcotest.(check (float 0.)) "mean from fluid" fluid.CS.mean_latency_ns
    mixed.CS.mean_latency_ns;
  Alcotest.(check (float 0.)) "busy from fluid" fluid.CS.busy_fraction
    mixed.CS.busy_fraction;
  (* ...and the p99 from the exact slice: a real number in a plausible
     band (above the no-queueing floor, below 100x it). *)
  let s =
    Array.fold_left (fun a x -> a +. Float.max x 1000.) 0. config.CS.stage_cpu_ns
  in
  let floor = config.CS.client_rtt_ns +. s in
  Alcotest.(check bool) "p99 measured by the slice" true
    (Float.is_finite mixed.CS.p99_latency_ns
    && mixed.CS.p99_latency_ns >= floor
    && mixed.CS.p99_latency_ns < 100. *. floor)

let test_sweep_fidelity_matches_map () =
  let configs =
    List.map
      (fun n -> CS.default_config CS.Hierarchical ~containers:n)
      [ 4; 8; 16 ]
  in
  let swept =
    Xc_sim.Parallel.run_sharded ~jobs:2
      (List.map
         (fun c -> Xc_sim.Parallel.Shard.thunk (fun () -> CS.run_fidelity CS.Fluid c))
         configs)
  in
  let mapped = List.map CS.run_fluid configs in
  List.iter2
    (fun (a : CS.result) (b : CS.result) ->
      Alcotest.(check (float 0.)) "sweep = map" a.CS.mean_latency_ns
        b.CS.mean_latency_ns)
    swept mapped

(* ---------------- mixed tier feeds the tails pipeline ---------------- *)

let with_trace f =
  Trace.enable ~capacity:(1 lsl 18) ~sample:1 ();
  Fun.protect
    ~finally:Trace.disable f

let test_mixed_slice_emits_tails () =
  (* The whole point of the mixed tier: at fleet scale the p99 must
     still be attributable.  Price the config first (cost queries emit
     spans), then trace a mixed run and push the capture through the
     same attribution pipeline `xc cluster --tail` uses: the sampled
     slice must yield request spans, a non-empty tails row set, and
     mechanism rows including the net hops. *)
  let platform =
    Xc_platforms.Platform.create
      (Xc_platforms.Config.make Xc_platforms.Config.X_container)
  in
  let config = CS.config_of_platform ~containers:8 ~connections:5 platform in
  let r, captured =
    with_trace (fun () ->
        Trace.capture (fun () ->
            CS.run_fidelity (CS.Mixed { sample_rate = 4 }) config))
  in
  Alcotest.(check bool) "slice measured a p99" true
    (Float.is_finite r.CS.p99_latency_ns);
  let att = Profile.attribute captured.Trace.events in
  let totals = Profile.request_totals att in
  Alcotest.(check bool) "slice emitted request spans" true (totals <> []);
  let cut =
    Xc_sim.Histogram.percentile_floor (Xc_sim.Histogram.of_samples totals) 99.
  in
  let tail = Profile.tail_of ~label:"mixed" ~pct:99. ~cut_ns:cut att in
  Alcotest.(check bool) "tail has requests" true (tail.Profile.n_tail > 0);
  Alcotest.(check bool) "tail has mechanism rows" true
    (tail.Profile.tail_mech <> []);
  Alcotest.(check bool) "mechanisms include a net hop" true
    (List.exists (fun (cat, _, _) -> cat = "net.hop") tail.Profile.tail_mech)

let suites =
  [
    ( "platforms.cluster_fluid",
      [
        Alcotest.test_case "mva light load" `Quick test_mva_light_load;
        Alcotest.test_case "mva saturation" `Quick test_mva_saturation;
        Alcotest.test_case "mva monotone in clients" `Quick
          test_mva_monotone_in_clients;
        Alcotest.test_case "mva zero think" `Quick test_mva_zero_think;
        Alcotest.test_case "mva cap asymptote" `Quick test_mva_cap_asymptote;
        Alcotest.test_case "mva invalid args" `Quick test_mva_invalid_args;
        QCheck_alcotest.to_alcotest fluid_differential_prop;
        Alcotest.test_case "strict-regime anchors within 5%" `Quick
          test_strict_regime_anchors;
        Alcotest.test_case "fluid deterministic and seedless" `Quick
          test_fluid_deterministic_and_seedless;
        Alcotest.test_case "run_fidelity dispatch" `Quick
          test_run_fidelity_dispatch;
        Alcotest.test_case "mixed combines tiers" `Quick
          test_mixed_combines_tiers;
        Alcotest.test_case "sweep with fidelity" `Quick
          test_sweep_fidelity_matches_map;
        Alcotest.test_case "mixed slice emits tails" `Quick
          test_mixed_slice_emits_tails;
      ] );
  ]
