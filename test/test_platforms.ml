(* Tests for the platform layer: configuration grid, the capability
   matrix of Section 2.3, syscall-path costs, and the closed-loop
   benchmark driver. *)

open Xc_platforms

let cfg ?(cloud = Config.Amazon_ec2) ?(patched = true) runtime =
  Config.make ~cloud ~meltdown_patched:patched runtime

(* ---------------- Config ---------------- *)

let test_names () =
  Alcotest.(check string) "patched" "X-Container" (Config.name (cfg Config.X_container));
  Alcotest.(check string) "unpatched" "Docker-unpatched"
    (Config.name (cfg ~patched:false Config.Docker))

let test_ten_configurations () =
  let configs = Config.ten_configurations Config.Amazon_ec2 in
  Alcotest.(check int) "ten" 10 (List.length configs);
  let names = List.map Config.name configs in
  Alcotest.(check bool) "unique names" true
    (List.length (List.sort_uniq compare names) = 10)

let test_capability_matrix () =
  let supports = Config.supports in
  (* Section 2.3: the X-Container claim is being the only LibOS platform
     with binary compatibility AND multicore processing. *)
  Alcotest.(check bool) "xc binary compat" true
    (supports Config.X_container Config.Binary_compat);
  Alcotest.(check bool) "xc multicore" true
    (supports Config.X_container Config.Multicore);
  Alcotest.(check bool) "gvisor no multicore" false
    (supports Config.Gvisor Config.Multicore);
  Alcotest.(check bool) "gvisor multiprocess" true
    (supports Config.Gvisor Config.Multiprocess);
  Alcotest.(check bool) "unikernel single process" false
    (supports Config.Unikernel Config.Multiprocess);
  Alcotest.(check bool) "graphene partial compat" false
    (supports Config.Graphene Config.Binary_compat);
  Alcotest.(check bool) "clear needs hw virt" false
    (supports Config.Clear_container Config.No_hw_virt);
  Alcotest.(check bool) "xc no hw virt needed" true
    (supports Config.X_container Config.No_hw_virt);
  Alcotest.(check bool) "xc kernel modules (S5.7)" true
    (supports Config.X_container Config.Kernel_modules);
  Alcotest.(check bool) "docker no kernel modules" false
    (supports Config.Docker Config.Kernel_modules)

(* ---------------- Syscall path ---------------- *)

let test_entry_costs_ordering () =
  let e c = Syscall_path.entry_ns c in
  Alcotest.(check bool) "xc cheapest of containers" true
    (e (cfg Config.X_container) < e (cfg Config.Clear_container));
  Alcotest.(check bool) "clear < docker patched" true
    (e (cfg Config.Clear_container) < e (cfg Config.Docker));
  Alcotest.(check bool) "docker < xen pv" true
    (e (cfg Config.Docker) < e (cfg Config.Xen_container));
  Alcotest.(check bool) "xen pv < gvisor" true
    (e (cfg Config.Xen_container) < e (cfg Config.Gvisor))

let test_meltdown_patch_effects () =
  let e ~patched runtime = Syscall_path.entry_ns (cfg ~patched runtime) in
  (* KPTI hurts Docker and Xen-Container; X-Containers and Clear are
     immune (Section 5.4). *)
  Alcotest.(check bool) "docker hurt" true
    (e ~patched:true Config.Docker > e ~patched:false Config.Docker);
  Alcotest.(check bool) "xen-container hurt" true
    (e ~patched:true Config.Xen_container > e ~patched:false Config.Xen_container);
  Alcotest.(check (float 1e-9)) "xc immune"
    (e ~patched:false Config.X_container) (e ~patched:true Config.X_container);
  Alcotest.(check (float 1e-9)) "clear immune"
    (e ~patched:false Config.Clear_container) (e ~patched:true Config.Clear_container)

let test_coverage_interpolation () =
  let c = cfg Config.X_container in
  let full = Syscall_path.effective_entry_ns c ~abom_coverage:1.0 in
  let none = Syscall_path.effective_entry_ns c ~abom_coverage:0.0 in
  let half = Syscall_path.effective_entry_ns c ~abom_coverage:0.5 in
  Alcotest.(check (float 1e-9)) "0%% = forwarded" (Syscall_path.unpatched_site_ns c) none;
  Alcotest.(check (float 1e-9)) "100%% = fast" (Syscall_path.entry_ns c) full;
  Alcotest.(check (float 1e-6)) "50%% midway" ((full +. none) /. 2.) half;
  (* Coverage is irrelevant on other platforms. *)
  let d = cfg Config.Docker in
  Alcotest.(check (float 1e-9)) "docker ignores coverage"
    (Syscall_path.effective_entry_ns d ~abom_coverage:0.1)
    (Syscall_path.effective_entry_ns d ~abom_coverage:0.9)

let test_interrupt_path () =
  Alcotest.(check bool) "xc events cheapest" true
    (Syscall_path.interrupt_ns (cfg Config.X_container)
    < Syscall_path.interrupt_ns (cfg Config.Xen_container));
  Alcotest.(check bool) "graphene multiproc tax" true
    (Syscall_path.graphene_entry_ns ~multiprocess:true
    > Syscall_path.graphene_entry_ns ~multiprocess:false)

(* ---------------- Platform ---------------- *)

let test_platform_costs () =
  let xc = Platform.create (cfg Config.X_container) in
  let docker = Platform.create (cfg Config.Docker) in
  Alcotest.(check bool) "xc syscall cheaper" true
    (Platform.syscall_ns xc (Xc_os.Kernel.Cheap Xc_os.Syscall_nr.Getpid)
    < Platform.syscall_ns docker (Xc_os.Kernel.Cheap Xc_os.Syscall_nr.Getpid));
  (* Section 5.4: process creation and context switching slower on XC. *)
  Alcotest.(check bool) "xc fork dearer" true
    (Platform.fork_ns xc > Platform.fork_ns docker);
  Alcotest.(check bool) "xc process switch dearer" true
    (Platform.process_switch_ns xc > Platform.process_switch_ns docker)

let test_container_switch_scaling () =
  let docker = Platform.create (cfg Config.Docker) in
  let xc = Platform.create (cfg Config.X_container) in
  (* Flat runqueue of 1600 vs hierarchy of 400: the Figure 8 mechanism. *)
  Alcotest.(check bool) "flat switch blows up at scale" true
    (Platform.container_switch_ns docker ~runnable:1600
    > 2. *. Platform.container_switch_ns xc ~runnable:400);
  Alcotest.(check bool) "both grow with load" true
    (Platform.container_switch_ns docker ~runnable:1600
     > Platform.container_switch_ns docker ~runnable:16
    && Platform.container_switch_ns xc ~runnable:400
       > Platform.container_switch_ns xc ~runnable:4)

let test_max_instances () =
  let at runtime =
    Platform.max_instances (Platform.create (cfg runtime)) ~host_memory_mb:(96 * 1024)
  in
  (* Section 5.6's boot ceilings. *)
  Alcotest.(check int) "HVM stops at 200" 200 (at Config.Xen_hvm);
  Alcotest.(check int) "PV stops at 250" 250 (at Config.Xen_pv);
  Alcotest.(check bool) "XC fits 400+" true (at Config.X_container >= 400);
  Alcotest.(check bool) "Docker fits 400+" true (at Config.Docker >= 400)

let test_net_hops_by_runtime () =
  let has hop runtime =
    List.mem hop (Platform.net_hops (Platform.create (cfg runtime)))
  in
  Alcotest.(check bool) "xc uses split driver" true
    (has Xc_net.Netpath.Split_driver Config.X_container);
  Alcotest.(check bool) "docker does not" false
    (has Xc_net.Netpath.Split_driver Config.Docker);
  Alcotest.(check bool) "gvisor has netstack" true
    (has Xc_net.Netpath.Gvisor_netstack Config.Gvisor);
  Alcotest.(check bool) "clear pays nested exits" true
    (has Xc_net.Netpath.Nested_exit Config.Clear_container)

let test_iperf_chunks () =
  let per runtime = Platform.iperf_per_chunk_cpu_ns (Platform.create (cfg runtime)) in
  Alcotest.(check bool) "gvisor chunk dearest" true
    (per Config.Gvisor > per Config.Clear_container);
  Alcotest.(check bool) "clear dearer than xc" true
    (per Config.Clear_container > per Config.X_container);
  Alcotest.(check bool) "xc dearer than docker" true
    (per Config.X_container > per Config.Docker)

(* ---------------- Closed loop ---------------- *)

let base_server service =
  { Closed_loop.units = 1; base_ns = service; stddev = 0.; floor = 0. }

let test_closed_loop_deterministic () =
  let config = { Closed_loop.default_config with duration_ns = 1e8; warmup_ns = 1e7 } in
  let r1 = Closed_loop.run config (base_server 20_000.) in
  let r2 = Closed_loop.run config (base_server 20_000.) in
  Alcotest.(check (float 1e-9)) "same seed same result" r1.throughput_rps r2.throughput_rps;
  let r3 = Closed_loop.run { config with seed = 99 } (base_server 20_000.) in
  Alcotest.(check bool) "ran" true (r3.completed > 0)

let test_closed_loop_saturated_capacity () =
  (* Many connections, one unit: throughput approaches 1/service. *)
  let config =
    { Closed_loop.default_config with connections = 64; duration_ns = 1e9; warmup_ns = 2e8 }
  in
  let r = Closed_loop.run config (base_server 50_000.) in
  let ideal = 1e9 /. 50_000. in
  Alcotest.(check bool) "within 10% of capacity" true
    (r.throughput_rps > 0.9 *. ideal && r.throughput_rps < 1.1 *. ideal)

let test_closed_loop_latency_floor () =
  let config = { Closed_loop.default_config with connections = 1; duration_ns = 1e8 } in
  let r = Closed_loop.run config (base_server 10_000.) in
  (* One connection: latency = rtt + service, throughput = 1/latency. *)
  let expected = config.rtt_ns +. 10_000. in
  Alcotest.(check bool) "mean latency near floor" true
    (r.mean_latency_ns > 0.95 *. expected && r.mean_latency_ns < 1.1 *. expected)

let test_closed_loop_units_scale () =
  let config =
    { Closed_loop.default_config with connections = 64; duration_ns = 5e8; warmup_ns = 1e8 }
  in
  let one = Closed_loop.run config (base_server 50_000.) in
  let four =
    Closed_loop.run config { (base_server 50_000.) with units = 4 }
  in
  Alcotest.(check bool) "4 units ~4x" true
    (four.throughput_rps > 3.2 *. one.throughput_rps)

(* The kernel against the engine-driven loop it replaced: the same
   result bit for bit, from the same number of dispatches; a quarter of
   the cases traced with telemetry, with or without bundle rows, and
   the same events and snapshots. *)
let closed_differential =
  let gen =
    QCheck.Gen.(
      pair Ref_loops.server_gen
        (pair
           (quad (int_range 0 24)
              (oneof [ return 0.; float_range 0. 2e5 ])
              (pair (float_range 1e5 2e6) (float_range 0. 5e5))
              small_nat)
           (pair (frequency [ (1, return true); (3, return false) ]) Ref_loops.mechanisms_gen)))
  in
  let print (server, ((connections, rtt_ns, (duration_ns, warmup_ns), seed), (traced, rows))) =
    Printf.sprintf
      "%s connections=%d rtt_ns=%h duration_ns=%h warmup_ns=%h seed=%d traced=%b rows=[%s]"
      (Ref_loops.print_server server) connections rtt_ns duration_ns warmup_ns seed traced
      (Ref_loops.print_mechanisms rows)
  in
  QCheck.Test.make ~name:"matches the engine-driven loop" ~count:150
    (QCheck.make ~print gen)
    (fun (server, ((connections, rtt_ns, (duration_ns, warmup_ns), seed), (traced, rows))) ->
      let config =
        { Closed_loop.connections; rtt_ns; duration_ns; warmup_ns; seed; trace_mechanisms = rows }
      in
      let a, na, ta = Ref_loops.observe ~traced (fun () -> Closed_loop.run config server) in
      let b, nb, tb = Ref_loops.observe ~traced (fun () -> Ref_loops.closed config server) in
      let same = Ref_loops.same_bits in
      na = nb && a.completed = b.completed
      && same a.throughput_rps b.throughput_rps
      && same a.mean_latency_ns b.mean_latency_ns
      && same a.p50_ns b.p50_ns && same a.p99_ns b.p99_ns
      && String.equal ta tb)

(* A NaN or past event time is refused by name instead of corrupting
   the heap: a NaN RTT makes every response time NaN, and an RTT more
   negative than twice the service time puts the response before the
   send. *)
let test_closed_loop_bad_times () =
  List.iter
    (fun rtt_ns ->
      Alcotest.check_raises
        (Printf.sprintf "rtt_ns = %g" rtt_ns)
        (Invalid_argument "Station.run: event in the past or NaN")
        (fun () ->
          ignore
            (Closed_loop.run
               { Closed_loop.default_config with rtt_ns; duration_ns = 1e6; warmup_ns = 0. }
               (base_server 10_000.))))
    [ Float.nan; -1e6 ]

(* ---------------- Words per event ---------------- *)

(* The X-Container NGINX server of the macro sweep, priced before the
   measured window opens. *)
let xc_nginx_server () =
  let config = Config.make Config.X_container in
  Xcontainers.Figures.server_for_public config (Platform.create config) `Nginx

let test_closed_loop_words () =
  let server = xc_nginx_server () in
  let config =
    {
      Closed_loop.default_config with
      connections = 96;
      duration_ns = 5e8;
      warmup_ns = 5e7;
    }
  in
  Test_sim.check_words_budget ~budget:6 (fun () -> Closed_loop.run config server)

(* xcperf's closed-traced cell on one platform and a short window:
   nginx's recipe bundles on the sequential lane, a telemetry snapshot
   every 50 sim-us, then the exact attribution and a p99 tail cut. *)
let test_traced_closed_loop_words () =
  let module Trace = Xc_trace.Trace in
  let module Profile = Xc_trace.Profile in
  let module Metrics = Xc_sim.Metrics in
  let pconfig = Config.make Config.X_container in
  let platform = Platform.create pconfig in
  (* Cost queries emit trace spans: price before tracing is on. *)
  let server = Xcontainers.Figures.server_for_public pconfig platform `Nginx in
  let nginx = Xc_suite.Workload.find_exn "nginx" in
  let config =
    {
      Closed_loop.default_config with
      connections = 32;
      duration_ns = 2e7;
      warmup_ns = 2e6;
      trace_mechanisms = Xc_apps.Recipe.mechanisms platform nginx.Xc_suite.Workload.recipe;
    }
  in
  Trace.enable ~capacity:Trace.default_capacity ~sample:1 ();
  Metrics.enable ~interval_ns:50e3 ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Trace.disable ())
    (fun () ->
      Test_sim.check_words_budget ~budget:77 (fun () ->
          let (_, captured), _ =
            Metrics.capture (fun () ->
                Trace.capture (fun () -> Closed_loop.run config server))
          in
          let att = Profile.attribute captured.Trace.events in
          let cut =
            Xc_sim.Histogram.percentile_floor
              (Xc_sim.Histogram.of_samples (Profile.request_totals att))
              99.
          in
          Profile.tail_of ~pct:99. ~cut_ns:cut att))

let suites =
  [
    ( "platforms.config",
      [
        Alcotest.test_case "names" `Quick test_names;
        Alcotest.test_case "ten configurations" `Quick test_ten_configurations;
        Alcotest.test_case "capability matrix (S2.3)" `Quick test_capability_matrix;
      ] );
    ( "platforms.syscall_path",
      [
        Alcotest.test_case "entry ordering" `Quick test_entry_costs_ordering;
        Alcotest.test_case "meltdown effects" `Quick test_meltdown_patch_effects;
        Alcotest.test_case "coverage interpolation" `Quick test_coverage_interpolation;
        Alcotest.test_case "interrupt path" `Quick test_interrupt_path;
      ] );
    ( "platforms.platform",
      [
        Alcotest.test_case "cost trade-offs (S5.4)" `Quick test_platform_costs;
        Alcotest.test_case "container switch scaling" `Quick
          test_container_switch_scaling;
        Alcotest.test_case "max instances (S5.6)" `Quick test_max_instances;
        Alcotest.test_case "net hops" `Quick test_net_hops_by_runtime;
        Alcotest.test_case "iperf chunks" `Quick test_iperf_chunks;
      ] );
    ( "platforms.closed_loop",
      [
        Alcotest.test_case "deterministic" `Quick test_closed_loop_deterministic;
        Alcotest.test_case "saturated capacity" `Quick
          test_closed_loop_saturated_capacity;
        Alcotest.test_case "latency floor" `Quick test_closed_loop_latency_floor;
        Alcotest.test_case "units scale" `Quick test_closed_loop_units_scale;
        Alcotest.test_case "words per event" `Quick test_closed_loop_words;
        Alcotest.test_case "traced words per event" `Quick test_traced_closed_loop_words;
        Alcotest.test_case "bad event times refused" `Quick test_closed_loop_bad_times;
        QCheck_alcotest.to_alcotest closed_differential;
      ] );
  ]
