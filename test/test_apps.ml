(* Tests for the application models: recipes, UnixBench, the Table 1
   profiles (run on the real ABOM machinery), scalability, the LibOS
   comparison and the load-balancer study. *)

open Xc_apps
module Config = Xc_platforms.Config
module Platform = Xc_platforms.Platform

let platform ?(cloud = Config.Amazon_ec2) ?(patched = true) runtime =
  Platform.create (Config.make ~cloud ~meltdown_patched:patched runtime)

(* ---------------- Recipes ---------------- *)

let test_recipe_pricing () =
  let p = platform Config.Docker in
  let r =
    Recipe.make ~name:"t" ~user_ns:1000.
      ~ops:[ Xc_os.Kernel.Cheap Xc_os.Syscall_nr.Getpid ]
      ~irqs:0 ()
  in
  let cpu = Recipe.cpu_only_ns p r in
  Alcotest.(check bool) "more than user time" true (cpu > 1000.);
  Alcotest.(check bool) "service includes net" true (Recipe.service_ns p r > cpu);
  Alcotest.(check int) "syscall count" 1 (Recipe.syscall_count r)

let test_recipe_hops_charged () =
  let p = platform Config.Docker in
  let base = Recipe.make ~name:"a" ~user_ns:0. ~ops:[] ~irqs:0 () in
  let hopped = Recipe.make ~name:"b" ~user_ns:0. ~ops:[] ~irqs:0 ~process_hops:2 () in
  Alcotest.(check bool) "hops cost" true
    (Recipe.cpu_only_ns p hopped > Recipe.cpu_only_ns p base)

(* The jitter factor is floored, so every service sample is at least
   [floor] times the priced service time.  One connection with no RTT
   makes each latency sample exactly one service sample, served back
   to back. *)
let test_recipe_jitter_positive () =
  let module CL = Xc_platforms.Closed_loop in
  let p = platform Config.Docker in
  let server =
    Recipe.server ~units:1 ~stddev:0.3 ~floor:0.2 p Nginx.static_request_wrk
  in
  let duration_ns = 1e8 in
  let r =
    CL.run
      { CL.default_config with connections = 1; rtt_ns = 0.; duration_ns; warmup_ns = 0. }
      server
  in
  Alcotest.(check bool) "ran" true (r.CL.completed > 100);
  Alcotest.(check bool) "positive" true (r.CL.p50_ns > 0.);
  Alcotest.(check bool) "mean at least the floor" true
    (r.CL.mean_latency_ns >= 0.2 *. server.CL.base_ns);
  Alcotest.(check bool) "served back to back inside the window" true
    (float_of_int r.CL.completed *. r.CL.mean_latency_ns <= duration_ns)

let test_app_coverages_match_table1 () =
  let coverage (r : Recipe.t) = r.abom_coverage in
  Alcotest.(check (float 1e-9)) "nginx" 0.923 (coverage Nginx.static_request_wrk);
  Alcotest.(check (float 1e-9)) "memcached" 1.0 (coverage Memcached.mixed_request);
  Alcotest.(check (float 1e-9)) "redis" 1.0 (coverage Redis.request);
  Alcotest.(check (float 1e-9)) "mysql auto" 0.446 Mysql.abom_coverage_auto;
  Alcotest.(check (float 1e-9)) "mysql manual" 0.922
    (coverage (Mysql.mixed_query ~offline_patched:true))

let test_mysql_offline_patch_helps () =
  let p = platform Config.X_container in
  let auto = Recipe.service_ns p (Mysql.mixed_query ~offline_patched:false) in
  let manual = Recipe.service_ns p (Mysql.mixed_query ~offline_patched:true) in
  Alcotest.(check bool) "offline patch speeds MySQL on XC" true (manual < auto);
  (* On Docker the patch state changes nothing. *)
  let d = platform Config.Docker in
  Alcotest.(check (float 1e-9)) "docker indifferent"
    (Recipe.service_ns d (Mysql.mixed_query ~offline_patched:false))
    (Recipe.service_ns d (Mysql.mixed_query ~offline_patched:true))

(* ---------------- UnixBench ---------------- *)

let test_unixbench_syscall_ordering () =
  let rate r = Unixbench.rate (platform r) Unixbench.Syscall_rate in
  Alcotest.(check bool) "xc > clear" true
    (rate Config.X_container > rate Config.Clear_container);
  Alcotest.(check bool) "clear > docker" true
    (rate Config.Clear_container > rate Config.Docker);
  Alcotest.(check bool) "docker > xen-container" true
    (rate Config.Docker > rate Config.Xen_container);
  Alcotest.(check bool) "xen-container > gvisor" true
    (rate Config.Xen_container > rate Config.Gvisor)

let test_unixbench_xc_weaknesses () =
  (* Section 5.4: XC slower than Docker on process creation and context
     switching, faster on file copy and pipes. *)
  let xc = platform Config.X_container and docker = platform Config.Docker in
  let r p t = Unixbench.rate p t in
  Alcotest.(check bool) "proc creation slower" true
    (r xc Unixbench.Process_creation < r docker Unixbench.Process_creation);
  Alcotest.(check bool) "ctx switching slower" true
    (r xc Unixbench.Context_switching < r docker Unixbench.Context_switching);
  Alcotest.(check bool) "file copy faster" true
    (r xc Unixbench.File_copy > r docker Unixbench.File_copy);
  Alcotest.(check bool) "pipe faster" true
    (r xc Unixbench.Pipe_throughput > r docker Unixbench.Pipe_throughput)

let test_unixbench_concurrent_scales () =
  let p = platform Config.X_container in
  let single = Unixbench.rate p Unixbench.Syscall_rate in
  let four = Unixbench.concurrent_rate p ~copies:4 Unixbench.Syscall_rate in
  Alcotest.(check bool) "between 3x and 4x" true
    (four > 3. *. single && four < 4. *. single);
  Alcotest.(check (float 1e-9)) "zero copies" 0.
    (Unixbench.concurrent_rate p ~copies:0 Unixbench.Syscall_rate)

let test_unixbench_names () =
  Alcotest.(check int) "five micro panels" 5 (List.length Unixbench.all_micro);
  Alcotest.(check string) "syscall name" "System Call"
    (Unixbench.test_name Unixbench.Syscall_rate)

(* ---------------- Table 1 profiles ---------------- *)

let test_profiles_complete () =
  Alcotest.(check int) "twelve applications" 12 (List.length Profiles.all);
  Alcotest.(check bool) "find nginx" true (Profiles.find "nginx" <> None);
  Alcotest.(check bool) "find case-insensitive" true (Profiles.find "MYSQL" <> None);
  Alcotest.(check bool) "unknown" true (Profiles.find "oracle" = None)

let test_profiles_match_paper () =
  (* Run the real ABOM machinery over each synthetic binary and check
     the measured reduction lands within 1.5 points of Table 1. *)
  List.iter
    (fun profile ->
      let m = Profiles.measure ~invocations:30_000 profile in
      let delta = Float.abs (m.auto_reduction -. profile.paper_reduction) in
      if delta > 0.015 then
        Alcotest.failf "%s: measured %.3f, paper %.3f" profile.name
          m.auto_reduction profile.paper_reduction)
    Profiles.all

let test_mysql_manual_patch () =
  match Profiles.find "mysql" with
  | None -> Alcotest.fail "mysql profile missing"
  | Some profile ->
      let m = Profiles.measure ~invocations:30_000 profile in
      Alcotest.(check bool) "auto ~44.6%" true
        (Float.abs (m.auto_reduction -. 0.446) < 0.02);
      Alcotest.(check bool) "manual ~92.2%" true
        (Float.abs (m.manual_reduction -. 0.922) < 0.02);
      Alcotest.(check bool) "manual strictly better" true
        (m.manual_reduction > m.auto_reduction +. 0.3)

(* Table 1's per-invocation loop: after a warm-up, a row allocates the
   syscall log and one boxed draw per invocation, 4.5 words per retired
   instruction, plus the fixed cost of building and patching two
   binaries (5.00 at 5,000 invocations). *)
let test_profiles_words () =
  let memcached = Option.get (Profiles.find "memcached") in
  ignore (Profiles.measure ~invocations:100 memcached);
  Test_sim.check_words_budget ~budget:6 (fun () ->
      Profiles.measure ~invocations:5_000 memcached)

let test_profiles_deterministic () =
  let profile = List.hd Profiles.all in
  let a = Profiles.measure ~invocations:5_000 ~seed:3 profile in
  let b = Profiles.measure ~invocations:5_000 ~seed:3 profile in
  Alcotest.(check (float 1e-12)) "same seed same measurement" a.auto_reduction
    b.auto_reduction

(* ---------------- Scalability (Figure 8) ---------------- *)

let test_scalability_boot_limits () =
  let booted runtime n = (Scalability.run runtime ~containers:n).booted in
  Alcotest.(check bool) "xc boots 400" true (booted Config.X_container 400);
  Alcotest.(check bool) "docker boots 400" true (booted Config.Docker 400);
  Alcotest.(check bool) "pv fails at 300" false (booted Config.Xen_pv 300);
  Alcotest.(check bool) "pv boots 250" true (booted Config.Xen_pv 250);
  Alcotest.(check bool) "hvm fails at 250" false (booted Config.Xen_hvm 250);
  Alcotest.(check bool) "hvm boots 200" true (booted Config.Xen_hvm 200)

let test_scalability_crossover () =
  let t runtime n = (Scalability.run runtime ~containers:n).throughput_rps in
  (* Docker wins in the mid range, X-Containers at 400 (Section 5.6). *)
  Alcotest.(check bool) "docker ahead at 200" true
    (t Config.Docker 200 > t Config.X_container 200);
  let ratio = t Config.X_container 400 /. t Config.Docker 400 in
  Alcotest.(check bool) "xc ~18% ahead at 400" true (ratio > 1.10 && ratio < 1.30)

let test_scalability_service_grows () =
  let s n = (Scalability.run Config.Docker ~containers:n).service_ns in
  Alcotest.(check bool) "docker service grows with N" true (s 400 > s 50)

(* ---------------- Figure 6 ---------------- *)

let test_fig6_nginx_single () =
  let g = Serverless.nginx_one_worker Serverless.G in
  let u = Serverless.nginx_one_worker Serverless.U in
  let x = Serverless.nginx_one_worker Serverless.X in
  Alcotest.(check bool) "x comparable to unikernel" true
    (x /. u > 0.9 && x /. u < 1.25);
  Alcotest.(check bool) "x ~2x graphene" true (x /. g > 1.7 && x /. g < 2.4)

let test_fig6_nginx_multi () =
  Alcotest.(check bool) "unikernel cannot" true
    (Serverless.nginx_four_workers Serverless.U = None);
  match
    ( Serverless.nginx_four_workers Serverless.X,
      Serverless.nginx_four_workers Serverless.G )
  with
  | Some x, Some g ->
      Alcotest.(check bool) "x >1.5x graphene" true (x /. g > 1.4 && x /. g < 2.2)
  | _ -> Alcotest.fail "expected results for X and G"

let test_fig6_php_mysql () =
  let get c topo =
    match Serverless.php_mysql c topo with
    | Some v -> v
    | None -> Alcotest.fail "missing"
  in
  Alcotest.(check bool) "graphene unsupported" true
    (Serverless.php_mysql Serverless.G Serverless.Shared = None);
  Alcotest.(check bool) "unikernel cannot merge" true
    (Serverless.php_mysql Serverless.U Serverless.Dedicated_merged = None);
  let x_ded = get Serverless.X Serverless.Dedicated in
  let u_ded = get Serverless.U Serverless.Dedicated in
  let x_merged = get Serverless.X Serverless.Dedicated_merged in
  Alcotest.(check bool) "x ~1.4x unikernel" true
    (x_ded /. u_ded > 1.25 && x_ded /. u_ded < 1.6);
  Alcotest.(check bool) "merged ~3x unikernel dedicated" true
    (x_merged /. u_ded > 2.5 && x_merged /. u_ded < 3.6);
  Alcotest.(check bool) "shared ~ dedicated" true
    (let x_sh = get Serverless.X Serverless.Shared in
     Float.abs ((x_sh /. x_ded) -. 1.0) < 0.05)

(* ---------------- Figure 9 ---------------- *)

let test_lb_shapes () =
  let result setup = Lb_experiment.run setup in
  let docker = result Lb_experiment.Docker_haproxy in
  let xc = result Lb_experiment.Xcontainer_haproxy in
  let nat = result Lb_experiment.Xcontainer_ipvs_nat in
  let dr = result Lb_experiment.Xcontainer_ipvs_dr in
  Alcotest.(check bool) "xc haproxy ~2x docker" true
    (let r = xc.throughput_rps /. docker.throughput_rps in
     r > 1.7 && r < 2.6);
  Alcotest.(check bool) "nat ~+12%" true
    (let r = nat.throughput_rps /. xc.throughput_rps in
     r > 1.05 && r < 1.35);
  Alcotest.(check bool) "dr ~2.5x nat" true
    (let r = dr.throughput_rps /. nat.throughput_rps in
     r > 2.0 && r < 3.6);
  Alcotest.(check bool) "dr bottleneck moves to backends" true
    (dr.bottleneck = `Backends);
  Alcotest.(check bool) "others balancer-bound" true
    (docker.bottleneck = `Balancer && nat.bottleneck = `Balancer)

let test_lb_requires_modules () =
  (* IPVS setups are exactly the ones Docker cannot express (S5.7). *)
  List.iter
    (fun setup ->
      let mode =
        match setup with
        | Lb_experiment.Docker_haproxy | Lb_experiment.Xcontainer_haproxy ->
            Xc_net.Load_balancer.Haproxy
        | Lb_experiment.Xcontainer_ipvs_nat -> Xc_net.Load_balancer.Ipvs_nat
        | Lb_experiment.Xcontainer_ipvs_dr -> Xc_net.Load_balancer.Ipvs_direct_routing
      in
      ignore (Xc_net.Load_balancer.requires_kernel_modules mode))
    Lb_experiment.all;
  Alcotest.(check int) "four setups" 4 (List.length Lb_experiment.all)

let suites =
  [
    ( "apps.recipe",
      [
        Alcotest.test_case "pricing" `Quick test_recipe_pricing;
        Alcotest.test_case "hops charged" `Quick test_recipe_hops_charged;
        Alcotest.test_case "jitter positive" `Quick test_recipe_jitter_positive;
        Alcotest.test_case "coverages match Table 1" `Quick
          test_app_coverages_match_table1;
        Alcotest.test_case "mysql offline patch" `Quick test_mysql_offline_patch_helps;
      ] );
    ( "apps.unixbench",
      [
        Alcotest.test_case "syscall ordering" `Quick test_unixbench_syscall_ordering;
        Alcotest.test_case "xc weaknesses (S5.4)" `Quick test_unixbench_xc_weaknesses;
        Alcotest.test_case "concurrent scaling" `Quick test_unixbench_concurrent_scales;
        Alcotest.test_case "names" `Quick test_unixbench_names;
      ] );
    ( "apps.profiles",
      [
        Alcotest.test_case "twelve rows" `Quick test_profiles_complete;
        Alcotest.test_case "match Table 1" `Slow test_profiles_match_paper;
        Alcotest.test_case "mysql manual patch" `Quick test_mysql_manual_patch;
        Alcotest.test_case "deterministic" `Quick test_profiles_deterministic;
        Alcotest.test_case "words per instruction" `Quick test_profiles_words;
      ] );
    ( "apps.scalability",
      [
        Alcotest.test_case "boot limits (S5.6)" `Quick test_scalability_boot_limits;
        Alcotest.test_case "crossover" `Quick test_scalability_crossover;
        Alcotest.test_case "service grows" `Quick test_scalability_service_grows;
      ] );
    ( "apps.serverless",
      [
        Alcotest.test_case "fig6a nginx single" `Quick test_fig6_nginx_single;
        Alcotest.test_case "fig6b nginx multi" `Quick test_fig6_nginx_multi;
        Alcotest.test_case "fig6c php+mysql" `Quick test_fig6_php_mysql;
      ] );
    ( "apps.lb",
      [
        Alcotest.test_case "fig9 shapes" `Quick test_lb_shapes;
        Alcotest.test_case "module requirements" `Quick test_lb_requires_modules;
      ] );
  ]
