(* Tests for the beyond-paper extensions: ablation, ballooning, density,
   live migration, cloning, the security analysis and the open-loop
   driver. *)

module Config = Xc_platforms.Config

(* ---------------- Ablation ---------------- *)

let web_shape =
  Xc_platforms.Ablation.shape ~syscalls:10 ~irqs:3 ~hops:2 ~coverage:0.95

let test_ablation_ordering () =
  let rel knob =
    Xc_platforms.Ablation.relative_throughput knob web_shape
      ~base_service_ns:20_000.
  in
  Alcotest.(check (float 1e-9)) "full is 1.0" 1.0 (rel Xc_platforms.Ablation.Full);
  List.iter
    (fun knob ->
      Alcotest.(check bool)
        (Xc_platforms.Ablation.knob_name knob ^ " costs throughput")
        true
        (rel knob < 1.0))
    Xc_platforms.Ablation.[ No_abom; No_global_bit; No_direct_events; No_user_iret ];
  (* Removing everything is worse than removing any single mechanism. *)
  List.iter
    (fun knob ->
      Alcotest.(check bool) "stock PV worst" true
        (rel Xc_platforms.Ablation.Stock_pv <= rel knob))
    Xc_platforms.Ablation.[ No_abom; No_global_bit; No_direct_events; No_user_iret ];
  (* The SMP customization is a gain. *)
  Alcotest.(check bool) "smp off is a gain" true
    (rel Xc_platforms.Ablation.Smp_disabled > 1.0)

let test_ablation_additivity () =
  let d knob = Xc_platforms.Ablation.service_delta_ns knob web_shape in
  let sum =
    d No_abom +. d No_global_bit +. d No_direct_events +. d No_user_iret
  in
  Alcotest.(check (float 1e-6)) "stock PV = sum of parts" sum
    (d Xc_platforms.Ablation.Stock_pv)

let test_ablation_coverage_matters () =
  let low = Xc_platforms.Ablation.shape ~syscalls:10 ~irqs:0 ~hops:0 ~coverage:0.4 in
  let high = Xc_platforms.Ablation.shape ~syscalls:10 ~irqs:0 ~hops:0 ~coverage:1.0 in
  (* Removing ABOM hurts more when coverage was high. *)
  Alcotest.(check bool) "high coverage loses more" true
    (Xc_platforms.Ablation.service_delta_ns No_abom high
    > Xc_platforms.Ablation.service_delta_ns No_abom low)

(* ---------------- Balloon ---------------- *)

let make_balloon mb =
  let d = Xc_hypervisor.Domain.create ~kind:Xc_hypervisor.Domain.Domu ~vcpus:1 ~memory_mb:mb in
  Xc_hypervisor.Balloon.create ~domain:d

let test_balloon_targets () =
  let b = make_balloon 256 in
  Alcotest.(check int) "starts deflated" 256 (Xc_hypervisor.Balloon.guest_usable_mb b);
  (match Xc_hypervisor.Balloon.set_target b ~usable_mb:128 with
  | Ok freed -> Alcotest.(check int) "freed 128" 128 freed
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "ballooned" 128 (Xc_hypervisor.Balloon.ballooned_mb b);
  (match Xc_hypervisor.Balloon.set_target b ~usable_mb:200 with
  | Ok freed -> Alcotest.(check int) "deflate returns negative" (-72) freed
  | Error e -> Alcotest.fail e);
  (match Xc_hypervisor.Balloon.set_target b ~usable_mb:32 with
  | Error _ -> () (* below the 64MB floor of Section 5.6 *)
  | Ok _ -> Alcotest.fail "below floor must fail");
  match Xc_hypervisor.Balloon.set_target b ~usable_mb:512 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "above reservation must fail"

let test_balloon_pool_reclaim () =
  let pool = Xc_hypervisor.Balloon.pool ~host_mb:1024 in
  let b1 = make_balloon 512 and b2 = make_balloon 512 in
  Xc_hypervisor.Balloon.attach pool b1;
  Xc_hypervisor.Balloon.attach pool b2;
  Alcotest.(check int) "committed" 1024 (Xc_hypervisor.Balloon.pool_committed_mb pool);
  (match Xc_hypervisor.Balloon.set_target b1 ~usable_mb:212 with
  | Ok moved -> Alcotest.(check int) "inflated" 300 moved
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "host free grew" 300 (Xc_hypervisor.Balloon.pool_free_mb pool)

(* ---------------- Density ---------------- *)

let test_density_policies () =
  let static = Xc_apps.Density.run Xc_apps.Density.Static in
  let balloon = Xc_apps.Density.run Xc_apps.Density.Balloon in
  let tmem = Xc_apps.Density.run Xc_apps.Density.Balloon_tmem in
  Alcotest.(check int) "static = memory / reservation" ((96 * 1024 - 1024) / 128)
    static.containers;
  Alcotest.(check bool) "ballooning packs 1.5-1.8x more" true
    (let g = Xc_apps.Density.density_gain static balloon in
     g > 1.5 && g < 1.8);
  Alcotest.(check bool) "tmem trades density for cache" true
    (tmem.containers < balloon.containers && tmem.containers > static.containers);
  Alcotest.(check bool) "tmem pool exists" true (tmem.tmem_pool_mb > 1000);
  Alcotest.(check bool) "cache hits estimated" true
    (tmem.est_page_cache_hit_gain > 0.3);
  Alcotest.(check int) "static has no pool" 0 static.tmem_pool_mb

let test_density_active_fraction () =
  (* Busier fleets balloon less, so they pack fewer containers. *)
  let calm = Xc_apps.Density.run ~active_fraction:0.1 Xc_apps.Density.Balloon in
  let busy = Xc_apps.Density.run ~active_fraction:0.8 Xc_apps.Density.Balloon in
  Alcotest.(check bool) "calmer packs more" true (calm.containers > busy.containers)

(* ---------------- Migration ---------------- *)

let test_migration_idle_guest () =
  let params =
    { (Xc_hypervisor.Migration.default_params ~memory_mb:128) with dirty_pages_per_s = 0. }
  in
  let r = Xc_hypervisor.Migration.migrate params in
  Alcotest.(check bool) "converged" true r.converged;
  Alcotest.(check int) "one round" 1 (List.length r.rounds);
  Alcotest.(check int) "sent everything once" (128 * 256) r.total_pages_sent;
  Alcotest.(check bool) "short downtime" true (r.downtime_ns < 10e6)

let test_migration_busy_guest () =
  let base = Xc_hypervisor.Migration.default_params ~memory_mb:128 in
  let calm = Xc_hypervisor.Migration.migrate { base with dirty_pages_per_s = 2_000. } in
  let busy = Xc_hypervisor.Migration.migrate { base with dirty_pages_per_s = 20_000. } in
  Alcotest.(check bool) "busier guest, more rounds" true
    (List.length busy.rounds > List.length calm.rounds);
  Alcotest.(check bool) "busier guest, longer downtime" true
    (busy.downtime_ns >= calm.downtime_ns)

let test_migration_divergence () =
  (* Dirty rate above the link's page rate never converges. *)
  let params =
    {
      (Xc_hypervisor.Migration.default_params ~memory_mb:64) with
      dirty_pages_per_s = 1e6;
      max_rounds = 10;
    }
  in
  let r = Xc_hypervisor.Migration.migrate params in
  Alcotest.(check bool) "did not converge" false r.converged;
  Alcotest.(check int) "capped rounds" 10 (List.length r.rounds)

(* ---------------- Cloning ---------------- *)

let test_cloning_speedups () =
  let s = Xcontainers.Cloning.snapshot_of_parent ~memory_mb:128 ~resident_pages:2048 in
  let c = Xcontainers.Cloning.clone s in
  Alcotest.(check bool) "clone under 20ms" true (c.total_ns < 20e6);
  Alcotest.(check bool) "clone >100x faster than cold boot" true
    (Xcontainers.Cloning.speedup_vs_cold_boot s > 100.);
  Alcotest.(check bool) "still faster than LightVM boot" true
    (Xcontainers.Cloning.speedup_vs_lightvm_boot s > 1.);
  Alcotest.(check bool) "bigger working set, slower clone" true
    ((Xcontainers.Cloning.clone
        (Xcontainers.Cloning.snapshot_of_parent ~memory_mb:128 ~resident_pages:20_000)).total_ns
    > c.total_ns)

(* ---------------- Security ---------------- *)

let test_security_tcb_ranking () =
  let tcb r = (Xcontainers.Security.profile_of r).tcb_kloc in
  Alcotest.(check bool) "xc tcb tiny vs docker" true
    (tcb Config.X_container * 20 < tcb Config.Docker);
  Alcotest.(check bool) "gvisor keeps host kernel in tcb" true
    (tcb Config.Gvisor >= tcb Config.Docker);
  Alcotest.(check bool) "relative tcb ~0.016" true
    (let r = float_of_int (tcb Config.X_container) /. float_of_int (tcb Config.Docker) in
     r > 0.005 && r < 0.05)

let test_security_exposure () =
  let e r = Xcontainers.Security.vulnerability_exposure (Xcontainers.Security.profile_of r) in
  Alcotest.(check (float 1e-9)) "docker is the unit" 1.0 (e Config.Docker);
  Alcotest.(check bool) "xc orders of magnitude lower" true
    (e Config.X_container < 0.01);
  Alcotest.(check bool) "clear between" true
    (e Config.Clear_container > e Config.X_container
    && e Config.Clear_container < e Config.Docker)

let test_security_meltdown_column () =
  let needs r = (Xcontainers.Security.profile_of r).needs_guest_meltdown_patch in
  (* The Section 5.1 setup: XC and Clear run unpatched on the syscall
     path, Docker and Xen-Container cannot. *)
  Alcotest.(check bool) "docker needs" true (needs Config.Docker);
  Alcotest.(check bool) "xen-container needs" true (needs Config.Xen_container);
  Alcotest.(check bool) "xc does not" false (needs Config.X_container);
  Alcotest.(check bool) "clear does not" false (needs Config.Clear_container)

(* ---------------- Open loop ---------------- *)

let ol_server service units =
  { Xc_platforms.Closed_loop.units; base_ns = service; stddev = 0.; floor = 0. }

let test_open_loop_low_load () =
  let r =
    Xc_platforms.Open_loop.run
      (Xc_platforms.Open_loop.config ~rate_rps:1_000. ())
      (ol_server 20_000. 4)
  in
  (* Far below capacity: completes what is offered; latency ~ service. *)
  Alcotest.(check bool) "completes offered" true
    (Float.abs (r.completed_rps -. 1_000.) /. 1_000. < 0.1);
  Alcotest.(check bool) "latency near service" true
    (r.p50_ns < 1.5 *. 20_000.)

let test_open_loop_saturation_tail () =
  let run rate =
    Xc_platforms.Open_loop.run
      (Xc_platforms.Open_loop.config ~rate_rps:rate ())
      (ol_server 20_000. 1)
  in
  let low = run 10_000. (* 20% load *) in
  let high = run 45_000. (* 90% load *) in
  Alcotest.(check bool) "tail grows with load" true (high.p99_ns > 2. *. low.p99_ns);
  Alcotest.(check bool) "queue builds" true (high.max_queue > low.max_queue)

let test_open_loop_overload () =
  let r =
    Xc_platforms.Open_loop.run
      (Xc_platforms.Open_loop.config ~rate_rps:100_000. ())
      (ol_server 20_000. 1)
  in
  (* Past capacity (50k/s): completion pegged at capacity. *)
  Alcotest.(check bool) "pegged at capacity" true
    (r.completed_rps < 55_000. && r.completed_rps > 45_000.)

let test_open_loop_deterministic () =
  let cfg = Xc_platforms.Open_loop.config ~rate_rps:5_000. () in
  let a = Xc_platforms.Open_loop.run cfg (ol_server 20_000. 2) in
  let b = Xc_platforms.Open_loop.run cfg (ol_server 20_000. 2) in
  Alcotest.(check (float 1e-9)) "deterministic" a.completed_rps b.completed_rps

(* The kernel against the engine-driven loop it replaced: the same
   result bit for bit, from the same number of dispatches, from light
   load to past saturation. *)
let open_differential =
  let gen =
    QCheck.Gen.(
      pair Ref_loops.server_gen
        (quad (float_range 0.05 1.5) (float_range 1e5 2e6) (float_range 0. 5e5) small_nat))
  in
  let print (server, (rho, duration_ns, warmup_ns, seed)) =
    Printf.sprintf "%s rho=%h duration_ns=%h warmup_ns=%h seed=%d"
      (Ref_loops.print_server server) rho duration_ns warmup_ns seed
  in
  QCheck.Test.make ~name:"matches the engine-driven loop" ~count:150
    (QCheck.make ~print gen)
    (fun ((server : Xc_platforms.Closed_loop.server), (rho, duration_ns, warmup_ns, seed)) ->
      let rate_rps =
        rho *. float_of_int server.Xc_platforms.Closed_loop.units *. 1e9
        /. server.Xc_platforms.Closed_loop.base_ns
      in
      let config =
        Xc_platforms.Open_loop.config ~duration_ns ~warmup_ns ~seed ~rate_rps ()
      in
      let a, na = Ref_loops.counted (fun () -> Xc_platforms.Open_loop.run config server) in
      let b, nb = Ref_loops.counted (fun () -> Ref_loops.open_ config server) in
      let same = Ref_loops.same_bits in
      let open Xc_platforms.Open_loop in
      na = nb && a.max_queue = b.max_queue
      && same a.offered_rps b.offered_rps
      && same a.completed_rps b.completed_rps
      && same a.mean_latency_ns b.mean_latency_ns
      && same a.p50_ns b.p50_ns && same a.p99_ns b.p99_ns)

let test_open_loop_bad_rate () =
  List.iter
    (fun rate_rps ->
      Alcotest.check_raises (Printf.sprintf "rate %g" rate_rps)
        (Invalid_argument "Open_loop.run: rate") (fun () ->
          ignore
            (Xc_platforms.Open_loop.run
               (Xc_platforms.Open_loop.config ~rate_rps ())
               (ol_server 20_000. 2))))
    [ 0.; -1.; Float.nan; Float.infinity ]

let test_open_loop_words () =
  let server = Test_platforms.xc_nginx_server () in
  let config =
    Xc_platforms.Open_loop.config ~duration_ns:5e8 ~warmup_ns:5e7
      ~rate_rps:40_000. ()
  in
  Test_sim.check_words_budget ~budget:5 (fun () ->
      Xc_platforms.Open_loop.run config server)

let suites =
  [
    ( "ext.ablation",
      [
        Alcotest.test_case "ordering" `Quick test_ablation_ordering;
        Alcotest.test_case "additivity" `Quick test_ablation_additivity;
        Alcotest.test_case "coverage matters" `Quick test_ablation_coverage_matters;
      ] );
    ( "ext.balloon",
      [
        Alcotest.test_case "targets" `Quick test_balloon_targets;
        Alcotest.test_case "pool reclaim" `Quick test_balloon_pool_reclaim;
      ] );
    ( "ext.density",
      [
        Alcotest.test_case "policies" `Quick test_density_policies;
        Alcotest.test_case "active fraction" `Quick test_density_active_fraction;
      ] );
    ( "ext.migration",
      [
        Alcotest.test_case "idle guest" `Quick test_migration_idle_guest;
        Alcotest.test_case "busy guest" `Quick test_migration_busy_guest;
        Alcotest.test_case "divergence" `Quick test_migration_divergence;
      ] );
    ("ext.cloning", [ Alcotest.test_case "speedups" `Quick test_cloning_speedups ]);
    ( "ext.security",
      [
        Alcotest.test_case "tcb ranking" `Quick test_security_tcb_ranking;
        Alcotest.test_case "exposure" `Quick test_security_exposure;
        Alcotest.test_case "meltdown column" `Quick test_security_meltdown_column;
      ] );
    ( "ext.open_loop",
      [
        Alcotest.test_case "low load" `Quick test_open_loop_low_load;
        Alcotest.test_case "saturation tail" `Quick test_open_loop_saturation_tail;
        Alcotest.test_case "overload" `Quick test_open_loop_overload;
        Alcotest.test_case "deterministic" `Quick test_open_loop_deterministic;
        Alcotest.test_case "words per event" `Quick test_open_loop_words;
        Alcotest.test_case "bad rate refused" `Quick test_open_loop_bad_rate;
        QCheck_alcotest.to_alcotest open_differential;
      ] );
  ]
