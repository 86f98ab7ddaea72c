(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5).  How fast the simulator itself runs is
   measured separately, by perf/xcperf (see perf/README.md).

   Usage:
     dune exec bench/main.exe                         # all paper experiments
     dune exec bench/main.exe -- --jobs 4             # same, 4 worker domains
     dune exec bench/main.exe table1 fig4             # a subset
     dune exec bench/main.exe smoke                   # tiny-duration sweep

   Experiments are independent deterministic simulations, so with
   --jobs N (or XC_JOBS=N) their cells fan out over N domains through
   the runner `xc` shares (Xc_suite.Run); output is byte-identical to
   the sequential run.

   --trace[=FILE] additionally records an Xc_trace event trace of
   every experiment (one track per experiment, Chrome trace-event JSON
   or CSV by extension, default BENCH_trace.json) plus a collapsed
   stack flamegraph sidecar (same basename, .folded).  --sample N
   keeps one event per window of N per (cat,name) stream so long runs
   fit one ring.  Trace, folded sidecar and stdout are all
   deterministic and byte-identical at any --jobs.

   --timeseries[=FILE] samples the metric registry every --interval N
   simulated microseconds (default 50) and writes the per-experiment
   time-series (default BENCH_timeseries.csv, Chrome counter events
   when FILE doesn't end in .csv) — also byte-identical at any
   --jobs.

   --perfetto[=FILE] enables both captures and writes one combined
   container (span tracks + counter tracks per experiment, default
   BENCH_perfetto.json) for a single Perfetto/chrome://tracing load.

   --alerts CAT/NAME>V[,CAT/NAME<V...] enables telemetry snapshots and
   checks the rules against every experiment's series after the run;
   any firing is reported to stderr and exits 1 (for CI gates). *)

module T = Xc_sim.Table
module Figures = Xcontainers.Figures
module Config = Xc_platforms.Config
module Spec = Xc_suite.Spec
module Suite = Xc_suite.Suite
module Registry = Xc_suite.Registry
module Sdriver = Xc_suite.Driver
module Run = Xc_suite.Run
module CS = Xc_platforms.Cluster_sim
module CL = Xc_platforms.Closed_loop

(* Experiment output goes through the runner's per-domain buffer (these
   shadow the Stdlib printers), so a cell can run on any worker domain
   and still print whole, in submission order. *)
open Run.Out

(* An experiment is a set of independent cells plus a printer over
   their index-ordered results ({!Run.cells}); an unsplittable one is
   one cell that prints as it runs.  Each experiment builds its grid
   from typed values; the bench/golden rules pin every printed byte. *)
let whole = Run.whole

let distinct xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let table1 () =
  section "Table 1: Automatic Binary Optimization Module (ABOM) efficacy";
  let t =
    T.create
      [
        ("Application", T.Left);
        ("Implementation", T.Left);
        ("Benchmark", T.Left);
        ("Reduction (measured)", T.Right);
        ("Reduction (paper)", T.Right);
      ]
  in
  List.iter
    (fun (m : Xc_apps.Profiles.measurement) ->
      let p = m.profile in
      let fmt_m =
        match p.paper_manual_reduction with
        | Some _ ->
            Printf.sprintf "%.1f%% (%.1f%% manual)" (100. *. m.auto_reduction)
              (100. *. m.manual_reduction)
        | None -> Printf.sprintf "%.1f%%" (100. *. m.auto_reduction)
      in
      let fmt_p =
        match p.paper_manual_reduction with
        | Some man ->
            Printf.sprintf "%.1f%% (%.1f%% manual)" (100. *. p.paper_reduction)
              (100. *. man)
        | None -> Printf.sprintf "%.1f%%" (100. *. p.paper_reduction)
      in
      T.add_row t [ p.name; p.implementation; p.benchmark; fmt_m; fmt_p ])
    (Figures.table1 ());
  print_table t

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)

(* One cell per (app × cloud), app-major: 6 independent closed-loop
   sweeps the pool can schedule freely; the per-app tables need both
   clouds, so they render in the merge-phase printer from the cell
   results. *)
let fig3 () =
  Run.Cells
    {
      shards =
        Array.of_list
          (List.concat_map
             (fun app ->
               List.map
                 (fun cloud () -> Figures.fig3 cloud app)
                 [ Config.Amazon_ec2; Config.Google_gce ])
             Figures.macro_apps);
      print =
        (fun results ->
          section "Figure 3: macrobenchmarks (relative to patched Docker)";
          List.iteri
            (fun a app ->
              let t =
                T.create
                  ~title:(Figures.macro_app_name app)
                  [
                    ("configuration", T.Left);
                    ("Amazon tput", T.Right);
                    ("Amazon lat", T.Right);
                    ("Google tput", T.Right);
                    ("Google lat", T.Right);
                  ]
              in
              let amazon = results.((2 * a) + 0) in
              let google = results.((2 * a) + 1) in
              let rel_la = Figures.relative_latency amazon
              and rel_tg = Figures.relative_throughput google
              and rel_lg = Figures.relative_latency google in
              List.iter
                (fun (name, ta) ->
                  let get l =
                    match List.assoc_opt name l with Some v -> v | None -> nan
                  in
                  T.add_row t
                    [
                      name;
                      T.fmt_ratio ta;
                      T.fmt_ratio (get rel_la);
                      T.fmt_ratio (get rel_tg);
                      T.fmt_ratio (get rel_lg);
                    ])
                (Figures.relative_throughput amazon);
              print_table t;
              print_newline ())
            Figures.macro_apps);
    }

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)

let fig4 () =
  section "Figure 4: relative system call throughput (higher is better)";
  let cols =
    [
      Figures.fig4 Config.Amazon_ec2 ~concurrent:false;
      Figures.fig4 Config.Amazon_ec2 ~concurrent:true;
      Figures.fig4 Config.Google_gce ~concurrent:false;
      Figures.fig4 Config.Google_gce ~concurrent:true;
    ]
  in
  let t =
    T.create
      [
        ("configuration", T.Left);
        ("Amazon single", T.Right);
        ("Amazon concurrent", T.Right);
        ("Google single", T.Right);
        ("Google concurrent", T.Right);
      ]
  in
  List.iter
    (fun (name, first) ->
      let rest =
        List.map
          (fun col -> match List.assoc_opt name col with Some v -> v | None -> nan)
          (List.tl cols)
      in
      T.add_row t (name :: List.map T.fmt_ratio (first :: rest)))
    (List.hd cols);
  print_table t

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)

let fig5 () =
  section "Figure 5: microbenchmarks (relative to patched Docker)";
  let panels =
    [
      ("(a) Amazon EC2 Single", Config.Amazon_ec2, false);
      ("(b) Amazon EC2 Concurrent", Config.Amazon_ec2, true);
      ("(c) Google GCE Single", Config.Google_gce, false);
      ("(d) Google GCE Concurrent", Config.Google_gce, true);
    ]
  in
  List.iter
    (fun (title, cloud, concurrent) ->
      let tests = Xc_apps.Unixbench.all_micro @ [ Xc_apps.Unixbench.Iperf ] in
      let t =
        T.create ~title
          (("configuration", T.Left)
          :: List.map (fun test -> (Xc_apps.Unixbench.test_name test, T.Right)) tests)
      in
      let columns = List.map (fun test -> Figures.fig5 cloud ~concurrent test) tests in
      let names = List.map fst (List.hd columns) in
      List.iter
        (fun name ->
          let cells =
            List.map
              (fun col ->
                match List.assoc_opt name col with
                | Some v -> T.fmt_ratio v
                | None -> "-")
              columns
          in
          T.add_row t (name :: cells))
        names;
      print_table t;
      print_newline ())
    panels

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)

let fig6 () =
  section "Figure 6: Unikernel (U), Graphene (G) and X-Container (X)";
  let r = Figures.fig6 () in
  let t = T.create ~title:"(a) NGINX, 1 worker" [ ("contender", T.Left); ("req/s", T.Right) ] in
  List.iter (fun (n, v) -> T.add_row t [ n; T.fmt_si v ]) r.nginx_1worker;
  print_table t;
  print_newline ();
  let t = T.create ~title:"(b) NGINX, 4 workers" [ ("contender", T.Left); ("req/s", T.Right) ] in
  List.iter (fun (n, v) -> T.add_row t [ n; T.fmt_si v ]) r.nginx_4workers;
  print_table t;
  print_newline ();
  let t =
    T.create ~title:"(c) 2 x PHP + MySQL (total of both PHP servers)"
      [ ("contender", T.Left); ("topology", T.Left); ("req/s", T.Right) ]
  in
  List.iter (fun (c, topo, v) -> T.add_row t [ c; topo; T.fmt_si v ]) r.php_mysql;
  print_table t

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)

let fig8 () =
  section "Figure 8: throughput scalability with container count";
  let results = Figures.fig8 () in
  let counts = Xc_apps.Scalability.default_counts in
  let t =
    T.create
      (("containers", T.Right)
      :: List.map (fun (r, _) -> (Config.runtime_name r, T.Right)) results)
  in
  List.iter
    (fun n ->
      let cells =
        List.map
          (fun (_, points) ->
            match
              List.find_opt
                (fun (p : Xc_apps.Scalability.point) -> p.containers = n)
                points
            with
            | Some p when p.booted -> T.fmt_si p.throughput_rps
            | Some _ -> "(no boot)"
            | None -> "-")
          results
      in
      T.add_row t (string_of_int n :: cells))
    counts;
  print_table t

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)

let fig9 () =
  section "Figure 9: kernel-level load balancing";
  let t =
    T.create
      [
        ("setup", T.Left);
        ("req/s", T.Right);
        ("LB cost/req", T.Right);
        ("bottleneck", T.Left);
      ]
  in
  List.iter
    (fun (r : Xc_apps.Lb_experiment.result) ->
      T.add_row t
        [
          Xc_apps.Lb_experiment.setup_name r.setup;
          T.fmt_si r.throughput_rps;
          Printf.sprintf "%.1fus" (r.lb_service_ns /. 1e3);
          (match r.bottleneck with `Balancer -> "balancer" | `Backends -> "backends");
        ])
    (Figures.fig9 ());
  print_table t

(* ------------------------------------------------------------------ *)
(* Boot times (Section 4.5)                                            *)

let boot () =
  section "Section 4.5: instantiation time";
  let t =
    T.create
      [
        ("platform", T.Left);
        ("toolstack", T.Right);
        ("kernel", T.Right);
        ("bootstrap", T.Right);
        ("total", T.Right);
      ]
  in
  List.iter
    (fun (r : Figures.boot_row) ->
      let b = r.breakdown in
      let msf v = Printf.sprintf "%.0fms" (v /. 1e6) in
      T.add_row t
        [
          r.label;
          msf b.Xcontainers.Boot.toolstack_ns;
          msf b.kernel_boot_ns;
          msf b.bootloader_ns;
          msf b.total_ns;
        ])
    (Figures.boot_times ());
  print_table t

(* ------------------------------------------------------------------ *)
(* Extension: ablation of the X-Container design choices               *)

let ablation () =
  section "Ablation: what each X-Container mechanism buys (beyond-paper)";
  let apps =
    [
      ("NGINX (wrk)", Xc_apps.Nginx.static_request_wrk);
      ("memcached (memtier)", Xc_apps.Memcached.mixed_request);
      ("Redis", Xc_apps.Redis.request);
      ("NGINX+PHP-FPM", Xc_apps.Php_app.fpm_request);
      (* A context-switch-dominated microbenchmark makes the global-bit
         row visible: the kernel-TLB refill is per switch. *)
      ( "ctx-switch ubench",
        Xc_apps.Recipe.make ~name:"ctx-ubench" ~user_ns:100.
          ~ops:
            [
              Xc_os.Kernel.Pipe_write 4;
              Xc_os.Kernel.Pipe_read 4;
              Xc_os.Kernel.Pipe_write 4;
              Xc_os.Kernel.Pipe_read 4;
            ]
          ~request_bytes:0 ~response_bytes:0 ~process_hops:4 ~irqs:0 () );
    ]
  in
  let platform =
    Xc_platforms.Platform.create (Config.make Config.X_container)
  in
  let t =
    T.create
      (("mechanism removed", T.Left)
      :: List.map (fun (name, _) -> (name, T.Right)) apps)
  in
  List.iter
    (fun knob ->
      let cells =
        List.map
          (fun (_, recipe) ->
            let shape =
              Xc_platforms.Ablation.shape
                ~syscalls:(Xc_apps.Recipe.syscall_count recipe)
                ~irqs:recipe.Xc_apps.Recipe.irqs
                ~hops:recipe.Xc_apps.Recipe.process_hops
                ~coverage:recipe.Xc_apps.Recipe.abom_coverage
            in
            let base = Xc_apps.Recipe.service_ns platform recipe in
            T.fmt_ratio
              (Xc_platforms.Ablation.relative_throughput knob shape
                 ~base_service_ns:base))
          apps
      in
      T.add_row t (Xc_platforms.Ablation.knob_name knob :: cells))
    Xc_platforms.Ablation.all;
  print_table t;
  print_newline ();
  print_endline
    "(throughput relative to the full X-Container; ABOM is the big lever on";
  print_endline
    " syscall-dense apps, direct event delivery on interrupt-dense ones;";
  print_endline
    " SMP-disabled is the Section 3.2 customization, a gain not a loss)"

(* ------------------------------------------------------------------ *)
(* Extension: event-driven scheduler simulation (Figure 8 mechanism)   *)

let fig8sim () =
  section
    "Figure 8 cross-validation: event-driven flat vs hierarchical scheduling";
  let t =
    T.create
      [
        ("containers", T.Right);
        ("flat rps", T.Right);
        ("hier rps", T.Right);
        ("flat cont-switches", T.Right);
        ("hier cont-switches", T.Right);
        ("flat switch ovh", T.Right);
        ("hier switch ovh", T.Right);
      ]
  in
  List.iter
    (fun n ->
      let flat =
        Xc_platforms.Cluster_sim.run
          (Xc_platforms.Cluster_sim.default_config Xc_platforms.Cluster_sim.Flat
             ~containers:n)
      in
      let hier =
        Xc_platforms.Cluster_sim.run
          (Xc_platforms.Cluster_sim.default_config
             Xc_platforms.Cluster_sim.Hierarchical ~containers:n)
      in
      T.add_row t
        [
          string_of_int n;
          T.fmt_si flat.throughput_rps;
          T.fmt_si hier.throughput_rps;
          string_of_int flat.container_switches;
          string_of_int hier.container_switches;
          Printf.sprintf "%.0fms" (flat.switch_overhead_ns /. 1e6);
          Printf.sprintf "%.0fms" (hier.switch_overhead_ns /. 1e6);
        ])
    [ 16; 64; 150; 400 ];
  print_table t;
  print_newline ();
  print_endline
    "(the two-level scheduler batches each container's processes, doing ~3x";
  print_endline
    " fewer cross-container switches; with 4N processes the flat scheduler's";
  print_endline
    " per-switch bookkeeping grows until the hierarchy wins, as in Figure 8)"

(* ------------------------------------------------------------------ *)
(* Extension: security/TCB comparison (Sections 2.2, 3.4)              *)

let security () =
  section "Isolation analysis: TCB and attack surface (Sections 2.2/3.4)";
  let t =
    T.create
      [
        ("platform", T.Left);
        ("boundary", T.Left);
        ("TCB kLoC", T.Right);
        ("surface", T.Right);
        ("rel. exposure", T.Right);
        ("guest KPTI needed", T.Left);
      ]
  in
  List.iter
    (fun (p : Xcontainers.Security.profile) ->
      T.add_row t
        [
          Config.runtime_name p.runtime;
          Xcontainers.Security.boundary_name p.boundary;
          string_of_int p.tcb_kloc;
          string_of_int p.attack_surface;
          Printf.sprintf "%.4f" (Xcontainers.Security.vulnerability_exposure p);
          (if p.needs_guest_meltdown_patch then "yes" else "no");
        ])
    Xcontainers.Security.all;
  print_table t

(* ------------------------------------------------------------------ *)
(* Extension: live migration (Section 3.3)                             *)

let migration () =
  section "Live migration of a 128MB X-Container (Section 3.3 extension)";
  let t =
    T.create
      [
        ("dirty rate (pages/s)", T.Right);
        ("rounds", T.Right);
        ("pages sent", T.Right);
        ("total time", T.Right);
        ("downtime", T.Right);
        ("converged", T.Left);
      ]
  in
  List.iter
    (fun dirty_rate ->
      let params =
        {
          (Xc_hypervisor.Migration.default_params ~memory_mb:128) with
          dirty_pages_per_s = dirty_rate;
        }
      in
      let r = Xc_hypervisor.Migration.migrate params in
      T.add_row t
        [
          Printf.sprintf "%.0f" dirty_rate;
          string_of_int (List.length r.rounds);
          string_of_int r.total_pages_sent;
          Printf.sprintf "%.0fms" (r.total_ns /. 1e6);
          Printf.sprintf "%.1fms" (r.downtime_ns /. 1e6);
          (if r.converged then "yes" else "no (forced stop)");
        ])
    [ 0.; 1_000.; 5_000.; 20_000.; 60_000.; 200_000. ];
  print_table t

(* ------------------------------------------------------------------ *)
(* Extension: clone-based spawning (Section 4.5)                       *)

let clone () =
  section "Spawning: cold boot vs SnowFlock-style cloning (Section 4.5)";
  let snapshot =
    Xcontainers.Cloning.snapshot_of_parent ~memory_mb:128 ~resident_pages:2048
  in
  let c = Xcontainers.Cloning.clone snapshot in
  let t = T.create [ ("path", T.Left); ("time", T.Right) ] in
  let msf v = Printf.sprintf "%.1fms" (v /. 1e6) in
  T.add_row t [ "cold boot, xl toolstack"; msf (Xcontainers.Boot.xcontainer ()).total_ns ];
  T.add_row t
    [
      "cold boot, LightVM toolstack";
      msf (Xcontainers.Boot.xcontainer ~toolstack:Xcontainers.Boot.Lightvm ()).total_ns;
    ];
  T.add_row t [ "clone: toolstack"; msf c.toolstack_ns ];
  T.add_row t [ "clone: CoW setup"; msf c.page_sharing_setup_ns ];
  T.add_row t [ "clone: eager working set"; msf c.eager_copy_ns ];
  T.add_row t [ "clone: total"; msf c.total_ns ];
  print_table t;
  printf "\nspeedup vs cold boot: %.0fx; vs LightVM boot: %.1fx\n"
    (Xcontainers.Cloning.speedup_vs_cold_boot snapshot)
    (Xcontainers.Cloning.speedup_vs_lightvm_boot snapshot)

(* ------------------------------------------------------------------ *)
(* Extension: the wider application sweep                              *)

(* One cell per (application × platform config): the named macro
   suite's 44 generic closed-loop specs, so the cell body IS the
   generic driver.  The normalisation base (patched Docker) is the
   row's first cell, so the printer needs the whole row — it renders in
   the merge phase. *)
let macro_extra () =
  let suite = List.assoc "macro" Registry.named in
  let specs = Array.of_list suite.Suite.specs in
  let titles =
    distinct
      (List.map
         (fun (s : Spec.t) ->
           (Xc_suite.Workload.find_exn s.Spec.workload).Xc_suite.Workload.title)
         suite.Suite.specs)
  in
  let configs =
    distinct (List.map (fun (s : Spec.t) -> s.Spec.platform) suite.Suite.specs)
  in
  let nc = List.length configs in
  Run.Cells
    {
      shards =
        Array.map
          (fun (s : Spec.t) () -> (Sdriver.closed_result s).CL.throughput_rps)
          specs;
      print =
        (fun tputs ->
          section
            "Extended macro sweep: relative throughput across eleven \
             applications";
          let t =
            T.create
              (("application", T.Left)
              :: List.map (fun c -> (Config.name c, T.Right)) configs)
          in
          List.iteri
            (fun a name ->
              let base = tputs.(a * nc) in
              T.add_row t
                (name
                :: List.mapi
                     (fun c _ -> T.fmt_ratio (tputs.((a * nc) + c) /. base))
                     configs))
            titles;
          print_table t;
          print_newline ();
          print_endline
            "(normalised to patched Docker; the syscall-dense caches gain the \
             most,";
          print_endline
            " the user-space-heavy databases the least - the Table 1/Figure 3 \
             story";
          print_endline
            " extended over the rest of the paper's application list)");
    }

(* ------------------------------------------------------------------ *)
(* Extension: serverless cold starts                                   *)

let coldstart () =
  section "Serverless cold starts: invocation latency by spawn path (extension)";
  List.iter
    (fun rate ->
      printf "arrival rate: %.2f invocations/s (50ms function, 30s keep-alive)\n"
        rate;
      let t =
        T.create
          [
            ("spawn path", T.Left);
            ("cold starts", T.Right);
            ("p50", T.Right);
            ("p99", T.Right);
          ]
      in
      List.iter
        (fun path ->
          let r = Xc_apps.Coldstart.run path (Xc_apps.Coldstart.default_config ~rate_rps:rate) in
          T.add_row t
            [
              Xc_apps.Coldstart.spawn_path_name path;
              Printf.sprintf "%d/%d (%.0f%%)" r.cold_starts r.invocations
                (100. *. r.cold_fraction);
              Printf.sprintf "%.0fms" (r.p50_latency_ns /. 1e6);
              Printf.sprintf "%.0fms" (r.p99_latency_ns /. 1e6);
            ])
        Xc_apps.Coldstart.all_paths;
      print_table t;
      print_newline ())
    [ 0.02; 0.05; 0.5 ]

(* ------------------------------------------------------------------ *)
(* Extension: open-loop latency curves                                 *)

(* One cell per (load fraction × runtime), fraction-major: 10
   independent open-loop runs.  Each cell rebuilds its (analytic,
   cheap) server and the Docker capacity it normalises against, so
   cells share nothing and the pool can run them in any order.  The
   fractions are of Docker's capacity (the figure's x-axis). *)
let latency () =
  let fractions = [ 0.3; 0.5; 0.7; 0.85; 0.95 ] in
  let server runtime =
    let platform = Xc_platforms.Platform.create (Config.make runtime) in
    let recipe = Xc_apps.Nginx.static_request_wrk in
    let service = Xc_apps.Recipe.service_ns platform recipe in
    ( service,
      { Xc_platforms.Closed_loop.units = 4; service_ns = (fun _ -> service) } )
  in
  Run.Cells
    {
      shards =
        Array.of_list
          (List.concat_map
             (fun fraction ->
               List.map
                 (fun runtime () ->
                   let docker_service, _ = server Config.Docker in
                   let _, srv = server runtime in
                   let capacity = 4e9 /. docker_service in
                   Xc_platforms.Open_loop.run
                     (Xc_platforms.Open_loop.config
                        ~rate_rps:(fraction *. capacity) ())
                     srv)
                 [ Config.Docker; Config.X_container ])
             fractions);
      print =
        (fun results ->
          section
            "Open-loop latency vs load: NGINX, Docker vs X-Container \
             (extension)";
          let t =
            T.create
              [
                ("load", T.Right);
                ("Docker p50", T.Right);
                ("Docker p99", T.Right);
                ("XC p50", T.Right);
                ("XC p99", T.Right);
              ]
          in
          List.iteri
            (fun i fraction ->
              let d = results.(2 * i) and x = results.((2 * i) + 1) in
              let us v = Printf.sprintf "%.0fus" (v /. 1e3) in
              T.add_row t
                [
                  Printf.sprintf "%.0f%%" (fraction *. 100.);
                  us d.Xc_platforms.Open_loop.p50_ns;
                  us d.Xc_platforms.Open_loop.p99_ns;
                  us x.Xc_platforms.Open_loop.p50_ns;
                  us x.Xc_platforms.Open_loop.p99_ns;
                ])
            fractions;
          print_table t;
          print_endline
            "(load normalised to Docker's capacity: at 95% of Docker's limit \
             the";
          print_endline
            " X-Container still has headroom, so its tail stays flat)");
    }

(* ------------------------------------------------------------------ *)
(* Extension: the kernel-compilation counterpoint                      *)

let build_bench () =
  section "Kernel compilation (tiny config): the process-churn counterpoint";
  let t =
    T.create
      [
        ("platform", T.Left);
        ("build time", T.Right);
        ("relative to Docker", T.Right);
      ]
  in
  List.iter
    (fun runtime ->
      let p = Xc_platforms.Platform.create (Config.make runtime) in
      T.add_row t
        [
          Config.runtime_name runtime;
          Printf.sprintf "%.1fs" (Xc_apps.Kernel_build.build_ns p /. 1e9);
          T.fmt_ratio (Xc_apps.Kernel_build.relative_to_docker p);
        ])
    [
      Config.Docker;
      Config.Clear_container;
      Config.X_container;
      Config.Xen_container;
      Config.Gvisor;
    ];
  print_table t;
  print_newline ();
  print_endline
    "(fork/exec-heavy work is where X-Containers give a little back - the";
  print_endline
    " PV page-table tax of Section 5.4 - while ABOM still converts 95.3%";
  print_endline " of the build's syscalls, keeping the gap small)"

(* ------------------------------------------------------------------ *)
(* Extension: memory density with ballooning/tmem                      *)

let density () =
  section "Memory density: X-Containers per 96GB host (Section 4.5 extension)";
  let t =
    T.create
      [
        ("policy", T.Left);
        ("containers", T.Right);
        ("tmem pool", T.Right);
        ("shared-cache hits", T.Right);
        ("vs static", T.Right);
      ]
  in
  let static = Xc_apps.Density.run Xc_apps.Density.Static in
  List.iter
    (fun policy ->
      let r = Xc_apps.Density.run policy in
      T.add_row t
        [
          Xc_apps.Density.policy_name policy;
          string_of_int r.containers;
          (if r.tmem_pool_mb > 0 then Printf.sprintf "%dMB" r.tmem_pool_mb else "-");
          (if r.est_page_cache_hit_gain > 0. then
             Printf.sprintf "%.0f%%" (100. *. r.est_page_cache_hit_gain)
           else "-");
          T.fmt_ratio (Xc_apps.Density.density_gain static r);
        ])
    Xc_apps.Density.all_policies;
  print_table t;
  print_newline ();
  print_endline
    "(20% of containers active; idle ones ballooned to the 64MB floor the";
  print_endline
    " paper measured X-Containers to run at - the Section 4.5 limitation,";
  print_endline " lifted with the mechanisms the paper cites)"

(* ------------------------------------------------------------------ *)
(* CSV artifact export (for plotting)                                  *)

let csv () =
  let dir = "results" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name (t : T.t) =
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc (T.to_csv t);
    close_out oc;
    printf "wrote %s\n" path
  in
  (* Table 1 *)
  let t = T.create [ ("application", T.Left); ("measured", T.Right); ("paper", T.Right) ] in
  List.iter
    (fun (m : Xc_apps.Profiles.measurement) ->
      T.add_row t
        [
          m.profile.name;
          Printf.sprintf "%.4f" m.auto_reduction;
          Printf.sprintf "%.4f" m.profile.paper_reduction;
        ])
    (Figures.table1 ());
  write "table1" t;
  (* Figure 3 (throughput, both clouds, all apps) *)
  let t =
    T.create
      [ ("app", T.Left); ("cloud", T.Left); ("configuration", T.Left);
        ("relative_tput", T.Right); ("relative_latency", T.Right) ]
  in
  List.iter
    (fun app ->
      List.iter
        (fun (cloud, cloud_name) ->
          let results = Figures.fig3 cloud app in
          let tput = Figures.relative_throughput results in
          let lat = Figures.relative_latency results in
          List.iter
            (fun (name, v) ->
              T.add_row t
                [
                  Figures.macro_app_name app;
                  cloud_name;
                  name;
                  Printf.sprintf "%.4f" v;
                  Printf.sprintf "%.4f" (List.assoc name lat);
                ])
            tput)
        [ (Config.Amazon_ec2, "amazon"); (Config.Google_gce, "google") ])
    Figures.macro_apps;
  write "fig3" t;
  (* Figure 4 *)
  let t =
    T.create
      [ ("configuration", T.Left); ("amazon_single", T.Right);
        ("amazon_concurrent", T.Right) ]
  in
  let single = Figures.fig4 Config.Amazon_ec2 ~concurrent:false in
  let conc = Figures.fig4 Config.Amazon_ec2 ~concurrent:true in
  List.iter
    (fun (name, v) ->
      T.add_row t
        [ name; Printf.sprintf "%.4f" v;
          Printf.sprintf "%.4f" (List.assoc name conc) ])
    single;
  write "fig4" t;
  (* Figure 5 (Amazon single panel) *)
  let tests = Xc_apps.Unixbench.all_micro @ [ Xc_apps.Unixbench.Iperf ] in
  let t =
    T.create
      (("configuration", T.Left)
      :: List.map (fun test -> (Xc_apps.Unixbench.test_name test, T.Right)) tests)
  in
  let cols = List.map (fun test -> Figures.fig5 Config.Amazon_ec2 ~concurrent:false test) tests in
  List.iter
    (fun (name, _) ->
      T.add_row t
        (name
        :: List.map
             (fun col -> Printf.sprintf "%.4f" (List.assoc name col))
             cols))
    (List.hd cols);
  write "fig5_amazon_single" t;
  (* Figure 8 *)
  let t =
    T.create
      (("containers", T.Right)
      :: List.map (fun r -> (Config.runtime_name r, T.Right)) Figures.fig8_runtimes)
  in
  let results = Figures.fig8 () in
  List.iter
    (fun n ->
      T.add_row t
        (string_of_int n
        :: List.map
             (fun (_, points) ->
               match
                 List.find_opt
                   (fun (p : Xc_apps.Scalability.point) -> p.containers = n)
                   points
               with
               | Some p when p.booted -> Printf.sprintf "%.0f" p.throughput_rps
               | _ -> "")
             results))
    Xc_apps.Scalability.default_counts;
  write "fig8" t;
  (* Figure 9 *)
  let t = T.create [ ("setup", T.Left); ("throughput_rps", T.Right) ] in
  List.iter
    (fun (r : Xc_apps.Lb_experiment.result) ->
      T.add_row t
        [
          Xc_apps.Lb_experiment.setup_name r.setup;
          Printf.sprintf "%.0f" r.throughput_rps;
        ])
    (Figures.fig9 ());
  write "fig9" t

(* ------------------------------------------------------------------ *)
(* Extension: request hedging and pluggable LB policies                *)

(* One cell per point across three grids: the PS cloning simulator vs
   the analytic oracle (the differential), the policy comparison at
   fixed load, and the Fig 9 cluster race (baseline vs hedged routing).
   The cluster configs are priced here at module init — before the
   harness can enable tracing — so traced runs capture only the
   simulation's own spans and tail attribution stays exact. *)
type hedging_cell =
  | H_oracle of { u : float; d : int; r : Xc_lb.Hedge.result; oracle : float }
  | H_policy of { kind : Xc_lb.Policy.kind; d : int; r : Xc_lb.Hedge.result }
  | H_cluster of { label : string; r : Xc_platforms.Cluster_sim.result }

let hedging () =
  let module H = Xc_lb.Hedge in
  let module P = Xc_lb.Policy in
  let oracle_points =
    Array.of_list
      (List.concat_map
         (fun u -> List.map (fun d -> (u, d)) [ 1; 2; 3 ])
         [ 0.3; 0.6 ])
  in
  let policy_points =
    Array.of_list
      (List.concat_map (fun kind -> List.map (fun d -> (kind, d)) [ 1; 2 ]) P.all_kinds)
  in
  (* The 4-container x 5-connection X-Container point, home-pinned
     and then least-loaded alone and hedged. *)
  let cluster_cells =
    Array.of_list
      (List.map
         (fun (label, lb) ->
           ( label,
             CS.config_of_platform ~containers:4 ~connections:5 ?lb
               (Xc_platforms.Platform.create (Config.make Config.X_container)) ))
         [
           ("home-pinned (baseline)", None);
           ("least-loaded d=1", Some { P.kind = P.Least_loaded; clones = 1 });
           ("least-loaded d=2", Some { P.kind = P.Least_loaded; clones = 2 });
         ])
  in
  Run.Cells
    {
      shards =
        Array.concat
          [
            Array.map
              (fun (u, d) () ->
                let cfg =
                  H.config_for_utilization ~clones:d ~duration_ns:4e9
                    ~utilization:u ()
                in
                let oracle =
                  Xc_lb.Oracle.cloned_mean_ns ~backends:cfg.H.backends ~clones:d
                    ~arrival_rate_per_ns:cfg.H.arrival_rate_per_ns
                    ~service_mean_ns:cfg.H.service_mean_ns
                in
                H_oracle { u; d; r = H.run cfg; oracle })
              oracle_points;
            Array.map
              (fun (kind, d) () ->
                let cfg =
                  H.config_for_utilization ~clones:d ~dispatch:(H.Policy kind)
                    ~duration_ns:1e9 ~utilization:0.65 ()
                in
                H_policy { kind; d; r = H.run cfg })
              policy_points;
            Array.map
              (fun (label, cfg) () ->
                H_cluster { label; r = Xc_platforms.Cluster_sim.run cfg })
              cluster_cells;
          ];
      print =
        (fun cells ->
          section "Request hedging: cloning, LB policies and the PS oracle (extension)";
          let t =
            T.create
              ~title:
                "Differential: cloned M/PS simulation vs closed form (6 \
                 backends, subcluster dispatch)"
              [
                ("util", T.Right);
                ("clones", T.Right);
                ("sim mean", T.Right);
                ("oracle", T.Right);
                ("delta", T.Right);
                ("p99", T.Right);
              ]
          in
          Array.iter
            (function
              | H_oracle { u; d; r; oracle } ->
                  T.add_row t
                    [
                      Printf.sprintf "%.2f" u;
                      string_of_int d;
                      Printf.sprintf "%.1fus" (r.H.mean_ns /. 1e3);
                      Printf.sprintf "%.1fus" (oracle /. 1e3);
                      Printf.sprintf "%+.1f%%"
                        ((r.H.mean_ns -. oracle) /. oracle *. 100.);
                      Printf.sprintf "%.1fus" (r.H.p99_ns /. 1e3);
                    ]
              | _ -> ())
            cells;
          print_table t;
          print_newline ();
          let t =
            T.create
              ~title:
                "Policy race at 65% per-backend load (hedge share = clone \
                 work cancelled / busy time)"
              [
                ("policy", T.Left);
                ("clones", T.Right);
                ("mean", T.Right);
                ("p99", T.Right);
                ("hedge share", T.Right);
              ]
          in
          Array.iter
            (function
              | H_policy { kind; d; r } ->
                  T.add_row t
                    [
                      P.kind_to_string kind;
                      string_of_int d;
                      Printf.sprintf "%.1fus" (r.H.mean_ns /. 1e3);
                      Printf.sprintf "%.1fus" (r.H.p99_ns /. 1e3);
                      Printf.sprintf "%.1f%%"
                        (if r.H.busy_ns > 0. then
                           r.H.cancelled_work_ns /. r.H.busy_ns *. 100.
                         else 0.);
                    ]
              | _ -> ())
            cells;
          print_table t;
          print_newline ();
          let clusters =
            Array.to_list cells
            |> List.filter_map (function
                 | H_cluster { label; r } -> Some (label, r)
                 | _ -> None)
          in
          let base_p99 =
            match clusters with
            | (_, r) :: _ -> r.Xc_platforms.Cluster_sim.p99_latency_ns
            | [] -> nan
          in
          let t =
            T.create
              ~title:
                "Fig 9 cluster tail: X-Container, 4 containers x 5 \
                 connections (the saturated point)"
              [
                ("routing", T.Left);
                ("p99", T.Right);
                ("vs baseline", T.Right);
                ("req/s", T.Right);
              ]
          in
          List.iteri
            (fun i (label, (r : Xc_platforms.Cluster_sim.result)) ->
              T.add_row t
                [
                  label;
                  Printf.sprintf "%.0fus" (r.p99_latency_ns /. 1e3);
                  (if i = 0 then "-"
                   else
                     Printf.sprintf "%+.1f%%"
                       ((r.p99_latency_ns -. base_p99) /. base_p99 *. 100.));
                  Printf.sprintf "%.0f" r.throughput_rps;
                ])
            clusters;
          print_table t;
          print_newline ();
          print_endline
            "(synchronized clones share their sub-cluster's PS capacity, so \
             cloning only";
          print_endline
            " pays off when spare capacity exists: at the saturated Fig 9 \
             point the d=2";
          print_endline
            " hedge inflates the tail while least-loaded routing alone \
             trims it - the";
          print_endline
            " oracle's effective utilization d.lambda.E[S]/n says exactly \
             when to stop)");
    }

(* ------------------------------------------------------------------ *)
(* Extension: million-container cluster scale via tiered fidelity      *)

(* The fluid tier solves each node's closed loop analytically, so a
   10^6-container fleet costs a few million MVA sweep steps instead of
   billions of scheduler events; the differential cells re-run
   overlapping scales through both tiers and print the disagreement
   (the cluster-fluid tests gate it outside the scheduling knee).
   Configs are priced at module init — before the harness can enable
   tracing — so traced runs capture only the simulation's own spans
   (the hedging precedent).  The fleet shard count is fixed, so event
   counts are --jobs-invariant. *)
type cluster_scale_cell =
  | C_fleet of {
      nodes : int;
      containers : int;
      rps : float;
      mean_sum_ns : float;
      busy_sum : float;
    }
  | C_diff of {
      label : string;
      exact : Xc_platforms.Cluster_sim.result;
      fluid : Xc_platforms.Cluster_sim.result;
    }
  | C_mixed of { label : string; r : Xc_platforms.Cluster_sim.result }

(* [diffs] are the [(mode, containers, connections)] differential
   points; the mixed cell samples 1 in 10 containers exactly. *)
let cluster_scale ~fleet_nodes ~fleet_shards ~diffs ~mixed_containers =
  let platform = Xc_platforms.Platform.create (Config.make Config.X_container) in
  (* Heterogeneous fleet: node sizes cycle 800-1200 containers (mean
     1000) at 5 connections, so the fleet totals fleet_nodes x 1000
     containers. *)
  let bases =
    Array.map
      (fun n -> CS.config_of_platform ~containers:n ~connections:5 platform)
      [| 800; 900; 1000; 1100; 1200 |]
  in
  let node_config i =
    let b = bases.(i mod Array.length bases) in
    { b with CS.seed = b.CS.seed + i }
  in
  let diff_cells =
    Array.of_list
      (List.map
         (fun (mode, n, conns) ->
           ( Printf.sprintf "%s n=%d c=%d"
               (match mode with CS.Flat -> "flat" | CS.Hierarchical -> "hier")
               n conns,
             {
               (CS.default_config mode ~containers:n) with
               CS.connections_per_container = conns;
             } ))
         diffs)
  in
  let mixed_rate = 10 in
  let mixed_config =
    CS.default_config CS.Hierarchical ~containers:mixed_containers
  in
  Run.Cells
    {
      shards =
        Array.concat
          [
            Array.init fleet_shards (fun k () ->
                let lo = k * fleet_nodes / fleet_shards
                and hi = (k + 1) * fleet_nodes / fleet_shards in
                let rps = ref 0.
                and mean = ref 0.
                and busy = ref 0.
                and conts = ref 0 in
                for i = lo to hi - 1 do
                  let c = node_config i in
                  let r = CS.run_fluid c in
                  rps := !rps +. r.CS.throughput_rps;
                  mean := !mean +. r.CS.mean_latency_ns;
                  busy := !busy +. r.CS.busy_fraction;
                  conts := !conts + c.CS.containers
                done;
                C_fleet
                  {
                    nodes = hi - lo;
                    containers = !conts;
                    rps = !rps;
                    mean_sum_ns = !mean;
                    busy_sum = !busy;
                  });
            Array.map
              (fun (label, config) () ->
                C_diff
                  { label; exact = CS.run config; fluid = CS.run_fluid config })
              diff_cells;
            [|
              (fun () ->
                C_mixed
                  {
                    label =
                      Printf.sprintf "hier n=%d, 1 in %d sampled"
                        mixed_containers mixed_rate;
                    r =
                      CS.run_fidelity
                        (CS.Mixed { sample_rate = mixed_rate })
                        mixed_config;
                  });
            |];
          ];
      print =
        (fun cells ->
          section
            "Cluster scale: tiered fidelity over a million containers \
             (extension)";
          let nodes = ref 0
          and conts = ref 0
          and rps = ref 0.
          and mean = ref 0.
          and busy = ref 0. in
          Array.iter
            (function
              | C_fleet f ->
                  nodes := !nodes + f.nodes;
                  conts := !conts + f.containers;
                  rps := !rps +. f.rps;
                  mean := !mean +. f.mean_sum_ns;
                  busy := !busy +. f.busy_sum
              | _ -> ())
            cells;
          printf
            "fluid fleet: %d node(s), %d containers — %s req/s, mean \
             latency %.1fms, mean busy %.0f%%\n\n"
            !nodes !conts
            (T.fmt_si !rps)
            (!mean /. float_of_int !nodes /. 1e6)
            (100. *. !busy /. float_of_int !nodes);
          let t =
            T.create
              ~title:
                "Differential: fluid (analytic) vs exact (event-driven) on \
                 overlapping scales"
              [
                ("point", T.Left);
                ("exact mean", T.Right);
                ("fluid mean", T.Right);
                ("delta", T.Right);
                ("exact busy", T.Right);
                ("fluid busy", T.Right);
              ]
          in
          Array.iter
            (function
              | C_diff { label; exact; fluid } ->
                  T.add_row t
                    [
                      label;
                      Printf.sprintf "%.1fms" (exact.CS.mean_latency_ns /. 1e6);
                      Printf.sprintf "%.1fms" (fluid.CS.mean_latency_ns /. 1e6);
                      Printf.sprintf "%+.1f%%"
                        ((fluid.CS.mean_latency_ns -. exact.CS.mean_latency_ns)
                        /. exact.CS.mean_latency_ns *. 100.);
                      Printf.sprintf "%.0f%%" (100. *. exact.CS.busy_fraction);
                      Printf.sprintf "%.0f%%" (100. *. fluid.CS.busy_fraction);
                    ]
              | _ -> ())
            cells;
          print_table t;
          print_newline ();
          Array.iter
            (function
              | C_mixed { label; r } ->
                  printf
                    "mixed tier (%s): mean %.1fms (fluid), p99 %.1fms (exact \
                     slice), %s req/s\n"
                    label
                    (r.CS.mean_latency_ns /. 1e6)
                    (r.CS.p99_latency_ns /. 1e6)
                    (T.fmt_si r.CS.throughput_rps)
              | _ -> ())
            cells;
          print_newline ();
          print_endline
            "(the fluid tier prices a node in one O(clients) MVA sweep - a \
             million";
          print_endline
            " containers in well under a second - and tracks the exact \
             tier within a";
          print_endline
            " few percent at light and saturated load; the mixed tier adds \
             a seeded";
          print_endline
            " exact slice so p99/tail attribution survives at fleet scale)");
    }

(* ------------------------------------------------------------------ *)
(* Causal what-if profiler (extension): per point, predict the virtual
   speedup from the traced baseline's attribution and validate it
   against an actually re-priced rerun.  The light points (1
   connection) are the regime where the linear prediction holds; the
   knee points (5 connections, the fig9 queueing regime) are kept on
   purpose to show where it breaks.  One cell on purpose: the
   baselines flip the process-wide trace flag ([Causal.with_tracing]),
   so they must not run concurrently with cells that assume the flag is
   stable — and the whole grid is cheap (100 ms windows at 1-5
   connections). *)

let causal () =
  let module Causal = Xc_obs.Causal in
  (* Configs are priced here, at module init, before --trace can turn
     the ring on.  Each (runtime x connections) target's baseline runs
     — and is traced — once, shared by every what-if point against it. *)
  let point ?(knee = false) runtime mech =
    let rt = Spec.runtime_to_string runtime in
    let connections = if knee then 5 else 1 in
    let platform = Xc_platforms.Platform.create (Config.make runtime) in
    let config =
      {
        (CS.config_of_platform ~containers:4 ~connections platform) with
        CS.duration_ns = 1e8;
        warmup_ns = 2e7;
        seed = 17;
      }
    in
    ( (rt ^ "/" ^ mech ^ if knee then "/knee" else ""),
      { Causal.label = Printf.sprintf "%s/c%d" rt connections; config },
      mech,
      0.7 )
  in
  let runtimes = [ Config.Docker; Config.X_container ] in
  let light =
    List.concat_map
      (fun rt -> List.map (point rt) [ "syscall-entry"; "ctx-switch"; "net.hop" ])
      runtimes
  in
  let knee = List.map (fun rt -> point ~knee:true rt "syscall-entry") runtimes in
  let points = light @ knee in
  whole (fun () ->
      section
        "Causal what-if profiler: virtual speedups, predicted vs rerun \
         (extension)";
      match Causal.sweep_points ~jobs:1 points with
      | Error m -> invalid_arg ("causal " ^ m)
      | Ok (baselines, points) ->
          List.iter
            (fun (label, b) ->
              print_string (Causal.render_baseline ~label b);
              print_newline ())
            baselines;
          print_string (Causal.render_points points);
          print_newline ();
          print_endline
            "(off the knee — 1 connection per container — the linear";
          print_endline
            " attribution-share prediction lands within a few percent of the";
          print_endline
            " re-priced rerun; the c=5 knee rows diverge on purpose: queueing";
          print_endline
            " amplification is exactly what a linear share cannot see)")

(* ------------------------------------------------------------------ *)
(* Smoke: every experiment family at tiny durations, cheap enough for
   tier-1 (`dune runtest` runs it at --jobs 1 and 2 and compares). *)

let table1_smoke () =
  section "Smoke: Table 1, 2k invocations";
  List.iter
    (fun (m : Xc_apps.Profiles.measurement) ->
      printf "%-20s %.1f%%\n" m.profile.name (100. *. m.auto_reduction))
    (Figures.table1 ~invocations:2_000 ())

(* The generic driver's load with a 20 ms window after 2 ms. *)
let smoke_load =
  { Spec.default.Spec.load with Spec.duration_ms = 20.; warmup_ms = 2. }

(* Two cells (one per runtime): the cheapest sharded experiment, and
   the one the tier-1 determinism rules cmp at --jobs 1 vs 2.  The
   cells are plain generic closed-loop specs. *)
let macro_smoke () =
  Run.Cells
    {
      shards =
        Array.map
          (fun runtime () ->
            let platform = Config.make runtime in
            let r =
              Sdriver.closed_result
                { Spec.default with Spec.platform; load = smoke_load }
            in
            (Config.name platform, r.CL.throughput_rps))
          [| Config.Docker; Config.X_container |];
      print =
        (fun rows ->
          section "Smoke: closed-loop macro, 20ms simulated";
          Array.iter
            (fun (name, rps) -> printf "%-24s %s req/s\n" name (T.fmt_si rps))
            rows);
    }

let latency_smoke () =
  section "Smoke: open-loop latency, 20ms simulated";
  let r =
    Sdriver.open_result
      {
        Spec.default with
        Spec.load = { smoke_load with Spec.shape = Spec.Open; rate = 0.25 };
      }
  in
  printf "p50 %.0fus  p99 %.0fus\n" (r.p50_ns /. 1e3) (r.p99_ns /. 1e3)

let fig8sim_smoke () =
  section "Smoke: cluster scheduler sweep, 20ms simulated, inner fan-out";
  let tiny mode n =
    {
      (CS.default_config mode ~containers:n) with
      duration_ns = 2e7;
      warmup_ns = 2e6;
      client_rtt_ns = 1e6;
    }
  in
  let configs =
    List.concat_map (fun n -> [ tiny CS.Flat n; tiny CS.Hierarchical n ]) [ 4; 8 ]
  in
  let results = CS.run_sweep ~jobs:2 configs in
  List.iter2
    (fun (c : CS.config) (r : CS.result) ->
      printf "%-12s n=%d  %s req/s  %d container switches\n"
        (match c.mode with CS.Flat -> "flat" | CS.Hierarchical -> "hierarchical")
        c.containers
        (T.fmt_si r.throughput_rps)
        r.container_switches)
    configs results

(* ------------------------------------------------------------------ *)
(* The experiment table is Xcontainers.Inventory.all: every inventory id
   maps to its cells here, and an id without a printer aborts the bench
   at startup, naming it. *)

let printer = function
  | "table1" -> whole table1
  | "fig3" -> fig3 ()
  | "fig4" -> whole fig4
  | "fig5" -> whole fig5
  | "fig6" -> whole fig6
  | "fig8" -> whole fig8
  | "fig9" -> whole fig9
  | "boot" -> whole boot
  | "ablation" -> whole ablation
  | "fig8sim" -> whole fig8sim
  | "security" -> whole security
  | "migration" -> whole migration
  | "clone" -> whole clone
  | "latency" -> latency ()
  | "coldstart" -> whole coldstart
  | "macro-extra" -> macro_extra ()
  | "build-bench" -> whole build_bench
  | "density" -> whole density
  | "hedging" -> hedging ()
  | "cluster-scale" ->
      cluster_scale ~fleet_nodes:1000 ~fleet_shards:16
        ~diffs:
          [
            (CS.Hierarchical, 8, 5);
            (CS.Hierarchical, 400, 5);
            (CS.Flat, 400, 5);
            (CS.Hierarchical, 64, 1);
          ]
        ~mixed_containers:200
  | "causal" -> causal ()
  | id ->
      Printf.eprintf "bench: inventory id %S has no printer\n" id;
      exit 1

let bench_experiments =
  List.map
    (fun (e : Xcontainers.Inventory.entry) -> (e.id, printer e.id))
    Xcontainers.Inventory.all

(* The bench experiments cheap enough to run unchanged, then the smoke
   variants. *)
let smoke_experiments =
  List.map
    (fun n -> (n, List.assoc n bench_experiments))
    [
      "fig4"; "fig5"; "fig6"; "fig8"; "fig9"; "boot"; "ablation"; "security";
      "migration"; "clone"; "coldstart"; "build-bench"; "density";
    ]
  @ [
      ("table1-smoke", whole table1_smoke);
      ("macro-smoke", macro_smoke ());
      ("latency-smoke", whole latency_smoke);
      ("fig8sim-smoke", whole fig8sim_smoke);
      ( "cluster-smoke",
        cluster_scale ~fleet_nodes:64 ~fleet_shards:8
          ~diffs:[ (CS.Hierarchical, 8, 5) ]
          ~mixed_containers:32 );
    ]

(* Everything plus the artifact writer, the one bench-only entry. *)
let all_experiments = bench_experiments @ [ ("csv", whole csv) ]

(* ------------------------------------------------------------------ *)

let run_experiments ~jobs ~trace_out ~sample ~timeseries_out ~interval_us
    ~perfetto_out ~alert_rules experiments =
  (* --perfetto wants both halves (spans and counter tracks); --alerts
     needs the snapshot series the rules are checked against. *)
  if trace_out <> None || perfetto_out <> None then
    Xc_trace.Trace.enable ~sample ();
  if timeseries_out <> None || perfetto_out <> None || alert_rules <> [] then
    Xc_sim.Metrics.enable ~interval_ns:(float_of_int interval_us *. 1e3) ();
  let t0 = Unix.gettimeofday () in
  let outcomes = Run.run ~jobs experiments in
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iter (fun (o : unit Run.outcome) -> Stdlib.print_string o.output) outcomes;
  let dropped =
    List.fold_left
      (fun acc (o : unit Run.outcome) -> acc + o.trace.Xc_trace.Trace.dropped)
      0 outcomes
  in
  (match timeseries_out with
  | None -> ()
  | Some path ->
      (* One track per experiment, counter events on the sim clock; CSV
         or Chrome JSON by extension.  Each experiment's telemetry was
         captured against a fresh registry, so the file is byte-identical
         at any --jobs (tier-1 cmps it). *)
      Run.write_timeseries ~path
        (List.map (fun (o : unit Run.outcome) -> (o.name, o.telemetry)) outcomes);
      let snaps =
        List.fold_left
          (fun a (o : unit Run.outcome) ->
            a + List.length o.telemetry.Xc_sim.Metrics.snapshots)
          0 outcomes
      in
      Printf.eprintf
        "[bench] wrote %s (%d snapshot(s) at %dus across %d experiment(s))\n%!"
        path snaps interval_us (List.length outcomes));
  (match trace_out with
  | None -> ()
  | Some path ->
      (* The trace plus two sidecars, all byte-identical at any --jobs
         (tier-1 cmps each): the collapsed-stack flamegraph, and for
         every track that emitted request spans, the p99 tail's
         per-mechanism breakdown as a tails CSV. *)
      let tracks =
        List.map (fun (o : unit Run.outcome) -> (o.name, o.trace)) outcomes
      in
      let tails =
        match Run.tails ~pct:99. tracks with
        | Ok tails -> tails
        | Error m ->
            Printf.eprintf "bench: %s\n" m;
            exit 1
      in
      let sidecar ext = Filename.remove_extension path ^ ext in
      Run.write_trace ~path tracks;
      Run.write_folded ~path:(sidecar ".folded") tracks;
      Run.write_tails ~path:(sidecar ".tails") tails;
      Printf.eprintf "[bench] wrote %s (%d request-emitting track(s))\n%!"
        (sidecar ".tails") (List.length tails);
      let total =
        List.fold_left
          (fun a (_, (c : Xc_trace.Trace.captured)) -> a + List.length c.events)
          0 tracks
      in
      if sample > 1 then begin
        let seen, kept =
          List.fold_left
            (fun acc (_, (c : Xc_trace.Trace.captured)) ->
              List.fold_left
                (fun (s, k) (st : Xc_trace.Trace.Stream.t) ->
                  (s + st.seen, k + st.kept))
                acc c.streams)
            (0, 0) tracks
        in
        Printf.eprintf
          "[bench] sampling stride %d: kept %d of %d offered events\n%!" sample
          kept seen
      end;
      Printf.eprintf "[bench] wrote %s and %s (%d trace events, %d dropped)\n%!"
        path (sidecar ".folded") total dropped);
  (match perfetto_out with
  | None -> ()
  | Some path ->
      (* One combined container: each experiment's span track followed
         by its telemetry counter track, so Perfetto shows flame and
         time-series lanes side by side.  Same byte-identical-at-any
         --jobs contract as the separate artifacts. *)
      let tracks =
        List.concat_map
          (fun (o : unit Run.outcome) ->
            let counters = Xc_sim.Metrics.to_trace_events o.telemetry in
            ((o.name, o.trace.Xc_trace.Trace.events)
            :: (if counters = [] then [] else [ (o.name ^ "/metrics", counters) ])))
          outcomes
      in
      Xc_trace.Export.to_file ~dropped ~path tracks;
      Printf.eprintf "[bench] wrote %s (%d combined track(s))\n%!" path
        (List.length tracks));
  let alarm =
    alert_rules <> []
    && List.fold_left
         (fun acc (o : unit Run.outcome) ->
           let fs = Xc_sim.Metrics.firings ~rules:alert_rules o.telemetry in
           if fs <> [] then begin
             Printf.eprintf "[bench] %s:\n%s%!" o.name
               (Xc_sim.Metrics.render_firings fs);
             true
           end
           else acc)
         false outcomes
  in
  Printf.eprintf "[bench] %d experiment(s), %d domain(s), %.2fs wall\n%!"
    (List.length outcomes) jobs wall_s;
  if alarm then exit 1

let fail fmt = Printf.ksprintf (fun m -> prerr_string m; exit 2) fmt

(* The bench's flags, each spelt [--NAME V] or [--NAME=V]; a flag with
   a [default] takes its value only as [--NAME=V] and means the default
   when bare.  [expects] completes the error for a missing value. *)
type flag = {
  name : string;
  default : string option;
  expects : string;
  set : string -> unit;
}

let parse_flags flags args =
  let find arg =
    List.find_map
      (fun f ->
        let pre = "--" ^ f.name ^ "=" in
        let n = String.length pre in
        if arg = "--" ^ f.name then Some (f, None)
        else if String.length arg > n && String.sub arg 0 n = pre then
          Some (f, Some (String.sub arg n (String.length arg - n)))
        else None)
      flags
  in
  let rec go acc = function
    | [] -> List.rev acc
    | arg :: rest -> (
        match (find arg, rest) with
        | None, _ -> go (arg :: acc) rest
        | Some (f, Some v), _ ->
            f.set v;
            go acc rest
        | Some (({ default = Some d; _ } as f), None), _ ->
            f.set d;
            go acc rest
        | Some (f, None), v :: rest ->
            f.set v;
            go acc rest
        | Some (f, None), [] -> fail "bench: --%s expects %s\n" f.name f.expects)
  in
  go [] args

let () =
  (match Xc_cpu.Costs.validate () with
  | Ok () -> ()
  | Error violations ->
      prerr_endline "cost-model validation failed:";
      List.iter (fun v -> prerr_endline ("  - " ^ v)) violations;
      exit 1);
  (* A bad XC_JOBS fails loudly up front (even if --jobs overrides it
     later): a typo silently running sequentially is worse than an
     error. *)
  let jobs =
    match Xc_sim.Parallel.jobs_from_env () with
    | Ok n -> ref n
    | Error msg -> fail "bench: %s\n" msg
  in
  let trace_out = ref None
  and sample = ref 1
  and suites = ref []
  and timeseries_out = ref None
  and perfetto_out = ref None
  and alert_rules = ref []
  and interval_us = ref 50 in
  let positive what unit r s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> r := n
    | _ -> fail "bench: --%s expects a positive integer%s, got %S\n" what unit s
  in
  let value name set = { name; default = None; expects = "an argument"; set } in
  let path name default r =
    { name; default = Some default; expects = ""; set = (fun p -> r := Some p) }
  in
  let flags =
    [
      value "jobs" (fun s ->
          match Xc_sim.Parallel.jobs_of_string s with
          | Ok n -> jobs := n
          | Error _ ->
              fail
                "bench: --jobs expects a positive integer (or 0 for auto), got \
                 %S\n"
                s);
      path "trace" "BENCH_trace.json" trace_out;
      value "sample" (positive "sample" "" sample);
      path "timeseries" "BENCH_timeseries.csv" timeseries_out;
      path "perfetto" "BENCH_perfetto.json" perfetto_out;
      {
        (value "alerts" (fun s ->
             String.split_on_char ',' s
             |> List.iter (fun spec ->
                    match Xc_sim.Metrics.rule_of_string (String.trim spec) with
                    | Ok r -> alert_rules := !alert_rules @ [ r ]
                    | Error m -> fail "bench: --alerts: %s\n" m)))
        with
        expects = "CAT/NAME>V[,CAT/NAME<V...]";
      };
      value "suite" (fun name ->
          match Registry.find_named name with
          | Some suite ->
              suites :=
                ("suite:" ^ name, Run.map ignore (Run.suite suite)) :: !suites
          | None ->
              fail
                "bench: --suite expects a named generic suite (%s), got %S%s\n"
                (String.concat " " Registry.named_names)
                name
                (if
                   List.mem_assoc name bench_experiments
                   || List.mem_assoc name smoke_experiments
                 then " (bench suites run as plain experiment names)"
                 else ""));
      value "interval" (positive "interval" " (sim-microseconds)" interval_us);
    ]
  in
  let names = parse_flags flags (List.tl (Array.to_list Sys.argv)) in
  let lookup name =
    if name = "smoke" then Some smoke_experiments
    else
      match List.assoc_opt name all_experiments with
      | Some f -> Some [ (name, f) ]
      | None -> (
          (* Smoke variants ("macro-smoke", "fig8sim-smoke", ...) are
             addressable individually, e.g. for the tier-1 trace
             determinism rule. *)
          match List.assoc_opt name smoke_experiments with
          | Some f -> Some [ (name, f) ]
          | None -> None)
  in
  let suites = List.rev !suites in
  let experiments =
    match (names, suites) with
    | [], [] -> bench_experiments
    | [], suites -> suites
    | names, suites ->
        List.concat_map
          (fun name ->
            match lookup name with
            | Some es -> es
            | None ->
                fail "unknown experiment %S; available: %s smoke %s\n" name
                  (String.concat " " (List.map fst all_experiments))
                  (String.concat " "
                     (List.filter
                        (fun n -> not (List.mem_assoc n all_experiments))
                        (List.map fst smoke_experiments))))
          names
        @ suites
  in
  run_experiments ~jobs:!jobs ~trace_out:!trace_out ~sample:!sample
    ~timeseries_out:!timeseries_out ~interval_us:!interval_us
    ~perfetto_out:!perfetto_out ~alert_rules:!alert_rules experiments
