(* The bench's experiments: each inventory id's cells and the report
   they build.  A report holds typed tables, so the bench's text, its
   CSV artifacts and the per-experiment `xc` commands are views of one
   value; the bench/golden rules pin every printed byte. *)

module T = Xc_sim.Table
module Figures = Xcontainers.Figures
module Config = Xc_platforms.Config
module CS = Xc_platforms.Cluster_sim
module CL = Xc_platforms.Closed_loop

let whole = Run.whole

(* Cell formats. *)
let ms digits = T.Scaled { per = 1e6; digits; unit = "ms" }
let us digits = T.Scaled { per = 1e3; digits; unit = "us" }
let fixed digits = T.Scaled { per = 1.; digits; unit = "" }
let text s = T.Text s
let line s = Run.Line s
let linef fmt = Printf.ksprintf line fmt

(* Columns headed [names], right-aligned. *)
let right names = List.map (fun n -> (n, T.Right)) names

(* A text block rendered elsewhere, one [Line] per line. *)
let lines s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev_map line rest
  | all -> List.rev_map line all

let assoc_or_nan k l = Option.value (List.assoc_opt k l) ~default:nan

let distinct xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let table1 () =
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
  (* The automatic reduction leads; MySQL's row adds the manual one. *)
  let reduction v manual =
    T.num (T.Percent 1) v
      ~rest:
        (match manual with
        | Some m -> Printf.sprintf " (%.1f%% manual)" (100. *. m)
        | None -> "")
  in
  List.iter
    (fun (m : Xc_apps.Profiles.measurement) ->
      let p = m.profile in
      T.add_row t
        [
          text p.name;
          text p.implementation;
          text p.benchmark;
          reduction m.auto_reduction
            (Option.map (fun _ -> m.manual_reduction) p.paper_manual_reduction);
          reduction p.paper_reduction p.paper_manual_reduction;
        ])
    (Figures.table1 ());
  [ Run.Section "Table 1: Automatic Binary Optimization Module (ABOM) efficacy"; Run.Table t ]

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)

(* One cell per (app × cloud), app-major: 6 independent closed-loop
   sweeps the pool can schedule freely; the per-app tables need both
   clouds, so they are built in the merge phase from the cell
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
      report =
        (fun results ->
          Run.Section "Figure 3: macrobenchmarks (relative to patched Docker)"
          :: List.concat
               (List.mapi
                  (fun a app ->
                    let t =
                      T.create
                        ~title:(Figures.macro_app_name app)
                        (("configuration", T.Left)
                        :: right [ "Amazon tput"; "Amazon lat"; "Google tput";
                                   "Google lat" ])
                    in
                    let amazon = results.((2 * a) + 0) in
                    let google = results.((2 * a) + 1) in
                    let rel_la = Figures.relative_latency amazon
                    and rel_tg = Figures.relative_throughput google
                    and rel_lg = Figures.relative_latency google in
                    List.iter
                      (fun (name, ta) ->
                        let get = assoc_or_nan name in
                        T.add_row t
                          (text name
                          :: List.map (T.num T.Ratio)
                               [ ta; get rel_la; get rel_tg; get rel_lg ]))
                      (Figures.relative_throughput amazon);
                    [ Run.Table t; line "" ])
                  Figures.macro_apps));
    }

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)

let fig4 () =
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
      (("configuration", T.Left)
      :: right [ "Amazon single"; "Amazon concurrent"; "Google single";
                 "Google concurrent" ])
  in
  List.iter
    (fun (name, first) ->
      let rest =
        List.map
          (assoc_or_nan name)
          (List.tl cols)
      in
      T.add_row t (text name :: List.map (T.num T.Ratio) (first :: rest)))
    (List.hd cols);
  [ Run.Section "Figure 4: relative system call throughput (higher is better)"; Run.Table t ]

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)

let fig5 () =
  let panels =
    [
      ("(a) Amazon EC2 Single", Config.Amazon_ec2, false);
      ("(b) Amazon EC2 Concurrent", Config.Amazon_ec2, true);
      ("(c) Google GCE Single", Config.Google_gce, false);
      ("(d) Google GCE Concurrent", Config.Google_gce, true);
    ]
  in
  let tests = Xc_apps.Unixbench.all_micro @ [ Xc_apps.Unixbench.Iperf ] in
  Run.Section "Figure 5: microbenchmarks (relative to patched Docker)"
  :: List.concat_map
       (fun (title, cloud, concurrent) ->
         let t =
           T.create ~title
             (("configuration", T.Left)
             :: List.map (fun test -> (Xc_apps.Unixbench.test_name test, T.Right)) tests)
         in
         let columns = List.map (fun test -> Figures.fig5 cloud ~concurrent test) tests in
         List.iter
           (fun (name, _) ->
             T.add_row t
               (text name
               :: List.map
                    (fun col ->
                      match List.assoc_opt name col with
                      | Some v -> T.num T.Ratio v
                      | None -> text "-")
                    columns))
           (List.hd columns);
         [ Run.Table t; line "" ])
       panels

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)

let fig6 () =
  let r = Figures.fig6 () in
  let contenders title rows =
    let t = T.create ~title [ ("contender", T.Left); ("req/s", T.Right) ] in
    List.iter (fun (n, v) -> T.add_row t [ text n; T.num T.Si v ]) rows;
    t
  in
  let php =
    T.create ~title:"(c) 2 x PHP + MySQL (total of both PHP servers)"
      [ ("contender", T.Left); ("topology", T.Left); ("req/s", T.Right) ]
  in
  List.iter (fun (c, topo, v) -> T.add_row php [ text c; text topo; T.num T.Si v ]) r.php_mysql;
  [
    Run.Section "Figure 6: Unikernel (U), Graphene (G) and X-Container (X)";
    Run.Table (contenders "(a) NGINX, 1 worker" r.nginx_1worker);
    line "";
    Run.Table (contenders "(b) NGINX, 4 workers" r.nginx_4workers);
    line "";
    Run.Table php;
  ]

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)

let fig8 () =
  let results = Figures.fig8 () in
  let t =
    T.create
      (("containers", T.Right)
      :: List.map (fun (r, _) -> (Config.runtime_name r, T.Right)) results)
  in
  List.iter
    (fun n ->
      T.add_row t
        (T.int n
        :: List.map
             (fun (_, points) ->
               match
                 List.find_opt
                   (fun (p : Xc_apps.Scalability.point) -> p.containers = n)
                   points
               with
               | Some p when p.booted -> T.num T.Si p.throughput_rps
               | Some _ -> text "(no boot)"
               | None -> text "-")
             results))
    Xc_apps.Scalability.default_counts;
  [ Run.Section "Figure 8: throughput scalability with container count"; Run.Table t ]

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)

let fig9 () =
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
          text (Xc_apps.Lb_experiment.setup_name r.setup);
          T.num T.Si r.throughput_rps;
          T.num (us 1) r.lb_service_ns;
          text (match r.bottleneck with `Balancer -> "balancer" | `Backends -> "backends");
        ])
    (Figures.fig9 ());
  [ Run.Section "Figure 9: kernel-level load balancing"; Run.Table t ]

(* ------------------------------------------------------------------ *)
(* Boot times (Section 4.5)                                            *)

let boot () =
  let t =
    T.create
      (("platform", T.Left)
      :: right [ "toolstack"; "kernel"; "bootstrap"; "total" ])
  in
  List.iter
    (fun (r : Figures.boot_row) ->
      let b = r.breakdown in
      T.add_row t
        (text r.label
        :: List.map (T.num (ms 0))
             [
               b.Xcontainers.Boot.toolstack_ns;
               b.kernel_boot_ns;
               b.bootloader_ns;
               b.total_ns;
             ]))
    (Figures.boot_times ());
  [ Run.Section "Section 4.5: instantiation time"; Run.Table t ]

(* ------------------------------------------------------------------ *)
(* The platforms: capabilities (Section 2.3) and calibrated costs      *)

let every_runtime =
  Config.[ Docker; Gvisor; Clear_container; Xen_container; X_container; Unikernel; Graphene ]

let platforms () =
  let features =
    Config.[ Binary_compat; Multiprocess; Multicore; Kernel_modules; No_hw_virt ]
  in
  let t =
    T.create
      (("platform", T.Left) :: List.map (fun f -> (Config.feature_name f, T.Left)) features)
  in
  List.iter
    (fun r ->
      T.add_row t
        (text (Config.runtime_name r)
        :: List.map (fun f -> text (if Config.supports r f then "yes" else "-")) features))
    every_runtime;
  [ Run.Table t ]

let syscall_costs ~cloud ~meltdown_patched =
  let ns = T.Scaled { per = 1.; digits = 0; unit = "ns" } in
  let t =
    T.create
      (("platform", T.Left)
      :: right [ "syscall entry"; "interrupt"; "process switch"; "fork" ])
  in
  List.iter
    (fun runtime ->
      let config = Config.make ~cloud ~meltdown_patched runtime in
      let p = Xc_platforms.Platform.create config in
      T.add_row t
        [
          text (Config.name config);
          T.num ns (Xc_platforms.Platform.syscall_entry_ns p);
          T.num ns (Xc_platforms.Platform.irq_ns p);
          T.num ns (Xc_platforms.Platform.process_switch_ns p);
          T.num (us 1) (Xc_platforms.Platform.fork_ns p);
        ])
    every_runtime;
  [ Run.Table t ]

(* ------------------------------------------------------------------ *)
(* Extension: ablation of the X-Container design choices               *)

let ablation () =
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
            T.num T.Ratio
              (Xc_platforms.Ablation.relative_throughput knob shape
                 ~base_service_ns:base))
          apps
      in
      T.add_row t (text (Xc_platforms.Ablation.knob_name knob) :: cells))
    Xc_platforms.Ablation.all;
  [
    Run.Section "Ablation: what each X-Container mechanism buys (beyond-paper)";
    Run.Table t;
    line "";
    line "(throughput relative to the full X-Container; ABOM is the big lever on";
    line " syscall-dense apps, direct event delivery on interrupt-dense ones;";
    line " SMP-disabled is the Section 3.2 customization, a gain not a loss)";
  ]

(* ------------------------------------------------------------------ *)
(* Extension: event-driven scheduler simulation (Figure 8 mechanism)   *)

let mode_name = function CS.Flat -> "flat" | CS.Hierarchical -> "hierarchical"

(* One cell per (count, mode) scheduler point, flat then hierarchical
   at each count, so the pool fans the runs out and each captures its
   own trace and telemetry.  [point mode n] is the point's config. *)
let scheduler point counts report =
  let configs =
    List.concat_map (fun n -> [ point CS.Flat n; point CS.Hierarchical n ]) counts
  in
  Run.Cells
    { shards = Array.of_list (List.map (fun c () -> (c, CS.run c)) configs); report }

let fig8sim () =
  scheduler
    (fun mode n -> CS.default_config mode ~containers:n)
    [ 16; 64; 150; 400 ]
    (fun rows ->
      let t =
        T.create
          (right [ "containers"; "flat rps"; "hier rps"; "flat cont-switches";
                   "hier cont-switches"; "flat switch ovh"; "hier switch ovh" ])
      in
      for i = 0 to (Array.length rows / 2) - 1 do
        let (c : CS.config), (flat : CS.result) = rows.(2 * i)
        and _, (hier : CS.result) = rows.((2 * i) + 1) in
        T.add_row t
          [
            T.int c.containers;
            T.num T.Si flat.throughput_rps;
            T.num T.Si hier.throughput_rps;
            T.int flat.container_switches;
            T.int hier.container_switches;
            T.num (ms 0) flat.switch_overhead_ns;
            T.num (ms 0) hier.switch_overhead_ns;
          ]
      done;
      [
        Run.Section
          "Figure 8 cross-validation: event-driven flat vs hierarchical scheduling";
        Run.Table t;
        line "";
        line "(the two-level scheduler batches each container's processes, doing ~3x";
        line " fewer cross-container switches; with 4N processes the flat scheduler's";
        line " per-switch bookkeeping grows until the hierarchy wins, as in Figure 8)";
      ])

(* [xc sweep]: the scheduler points over [duration_ms]-long windows. *)
let sweep ~counts ~duration_ms =
  scheduler
    (fun mode n ->
      { (CS.default_config mode ~containers:n) with duration_ns = duration_ms *. 1e6 })
    counts
    (fun rows ->
      let t =
        T.create
          [
            ("containers", T.Right);
            ("scheduler", T.Left);
            ("req/s", T.Right);
            ("p99", T.Right);
            ("container switches", T.Right);
          ]
      in
      Array.iter
        (fun ((c : CS.config), (r : CS.result)) ->
          T.add_row t
            [
              T.int c.containers;
              text (mode_name c.mode);
              T.num T.Si r.throughput_rps;
              T.num (ms 1) r.p99_latency_ns;
              T.int r.container_switches;
            ])
        rows;
      [ Run.Table t ])

(* ------------------------------------------------------------------ *)
(* Extension: security/TCB comparison (Sections 2.2, 3.4)              *)

let security () =
  let t =
    T.create
      ([ ("platform", T.Left); ("boundary", T.Left) ]
      @ right [ "TCB kLoC"; "surface"; "rel. exposure" ]
      @ [ ("guest KPTI needed", T.Left) ])
  in
  List.iter
    (fun (p : Xcontainers.Security.profile) ->
      T.add_row t
        [
          text (Config.runtime_name p.runtime);
          text (Xcontainers.Security.boundary_name p.boundary);
          T.int p.tcb_kloc;
          T.int p.attack_surface;
          T.num (fixed 4) (Xcontainers.Security.vulnerability_exposure p);
          text (if p.needs_guest_meltdown_patch then "yes" else "no");
        ])
    Xcontainers.Security.all;
  [ Run.Section "Isolation analysis: TCB and attack surface (Sections 2.2/3.4)"; Run.Table t ]

(* ------------------------------------------------------------------ *)
(* Extension: live migration (Section 3.3)                             *)

let migration () =
  let t =
    T.create
      (right [ "dirty rate (pages/s)"; "rounds"; "pages sent"; "total time"; "downtime" ]
      @ [ ("converged", T.Left) ])
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
          T.num (fixed 0) dirty_rate;
          T.int (List.length r.rounds);
          T.int r.total_pages_sent;
          T.num (ms 0) r.total_ns;
          T.num (ms 1) r.downtime_ns;
          text (if r.converged then "yes" else "no (forced stop)");
        ])
    [ 0.; 1_000.; 5_000.; 20_000.; 60_000.; 200_000. ];
  [ Run.Section "Live migration of a 128MB X-Container (Section 3.3 extension)"; Run.Table t ]

(* ------------------------------------------------------------------ *)
(* Extension: clone-based spawning (Section 4.5)                       *)

let clone ~memory_mb ~resident_pages =
  let snapshot = Xcontainers.Cloning.snapshot_of_parent ~memory_mb ~resident_pages in
  let c = Xcontainers.Cloning.clone snapshot in
  let t = T.create [ ("path", T.Left); ("time", T.Right) ] in
  List.iter
    (fun (path, ns) -> T.add_row t [ text path; T.num (ms 1) ns ])
    [
      ("cold boot, xl toolstack", (Xcontainers.Boot.xcontainer ()).total_ns);
      ( "cold boot, LightVM toolstack",
        (Xcontainers.Boot.xcontainer ~toolstack:Xcontainers.Boot.Lightvm ()).total_ns );
      ("clone: toolstack", c.toolstack_ns);
      ("clone: CoW setup", c.page_sharing_setup_ns);
      ("clone: eager working set", c.eager_copy_ns);
      ("clone: total", c.total_ns);
    ];
  [
    Run.Section "Spawning: cold boot vs SnowFlock-style cloning (Section 4.5)";
    Run.Table t;
    line "";
    linef "speedup vs cold boot: %.0fx; vs LightVM boot: %.1fx"
      (Xcontainers.Cloning.speedup_vs_cold_boot snapshot)
      (Xcontainers.Cloning.speedup_vs_lightvm_boot snapshot);
  ]

(* ------------------------------------------------------------------ *)
(* Extension: the wider application sweep                              *)

(* One cell per (application × platform config): the named macro
   suite's 44 generic closed-loop specs, so the cell body IS the
   generic driver.  The normalisation base (patched Docker) is the
   row's first cell, so the table needs the whole row — it is built in
   the merge phase. *)
let macro_extra () =
  let suite = List.assoc "macro" Registry.named in
  let specs = Array.of_list suite.Suite.specs in
  let titles =
    distinct
      (List.map
         (fun (s : Spec.t) -> (Workload.find_exn s.Spec.workload).Workload.title)
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
          (fun (s : Spec.t) () -> (Driver.closed_result s).CL.throughput_rps)
          specs;
      report =
        (fun tputs ->
          let t =
            T.create
              (("application", T.Left)
              :: List.map (fun c -> (Config.name c, T.Right)) configs)
          in
          List.iteri
            (fun a name ->
              let base = tputs.(a * nc) in
              T.add_row t
                (text name
                :: List.mapi
                     (fun c _ -> T.num T.Ratio (tputs.((a * nc) + c) /. base))
                     configs))
            titles;
          [
            Run.Section
              "Extended macro sweep: relative throughput across eleven \
               applications";
            Run.Table t;
            line "";
            line
              "(normalised to patched Docker; the syscall-dense caches gain \
               the most,";
            line
              " the user-space-heavy databases the least - the Table \
               1/Figure 3 story";
            line " extended over the rest of the paper's application list)";
          ]);
    }

(* ------------------------------------------------------------------ *)
(* Extension: serverless cold starts                                   *)

let coldstart ~rates =
  Run.Section "Serverless cold starts: invocation latency by spawn path (extension)"
  :: List.concat_map
       (fun rate ->
         let t =
           T.create
             (("spawn path", T.Left) :: right [ "cold starts"; "p50"; "p99" ])
         in
         List.iter
           (fun path ->
             let r =
               Xc_apps.Coldstart.run path (Xc_apps.Coldstart.default_config ~rate_rps:rate)
             in
             T.add_row t
               [
                 text (Xc_apps.Coldstart.spawn_path_name path);
                 T.num (fixed 0)
                   (float_of_int r.cold_starts)
                   ~rest:
                     (Printf.sprintf "/%d (%.0f%%)" r.invocations
                        (100. *. r.cold_fraction));
                 T.num (ms 0) r.p50_latency_ns;
                 T.num (ms 0) r.p99_latency_ns;
               ])
           Xc_apps.Coldstart.all_paths;
         [
           linef "arrival rate: %.2f invocations/s (50ms function, 30s keep-alive)" rate;
           Run.Table t;
           line "";
         ])
       rates

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
    {
      CL.units = 4;
      base_ns = Xc_apps.Recipe.service_ns platform recipe;
      stddev = 0.;
      floor = 0.;
    }
  in
  Run.Cells
    {
      shards =
        Array.of_list
          (List.concat_map
             (fun fraction ->
               List.map
                 (fun runtime () ->
                   let capacity = 4e9 /. (server Config.Docker).base_ns in
                   Xc_platforms.Open_loop.run
                     (Xc_platforms.Open_loop.config
                        ~rate_rps:(fraction *. capacity) ())
                     (server runtime))
                 [ Config.Docker; Config.X_container ])
             fractions);
      report =
        (fun results ->
          let t =
            T.create
              (right [ "load"; "Docker p50"; "Docker p99"; "XC p50"; "XC p99" ])
          in
          List.iteri
            (fun i fraction ->
              let d = results.(2 * i) and x = results.((2 * i) + 1) in
              T.add_row t
                (T.num (T.Percent 0) fraction
                :: List.map (T.num (us 0))
                     [
                       d.Xc_platforms.Open_loop.p50_ns;
                       d.Xc_platforms.Open_loop.p99_ns;
                       x.Xc_platforms.Open_loop.p50_ns;
                       x.Xc_platforms.Open_loop.p99_ns;
                     ]))
            fractions;
          [
            Run.Section
              "Open-loop latency vs load: NGINX, Docker vs X-Container \
               (extension)";
            Run.Table t;
            line
              "(load normalised to Docker's capacity: at 95% of Docker's limit \
               the";
            line " X-Container still has headroom, so its tail stays flat)";
          ]);
    }

(* ------------------------------------------------------------------ *)
(* Extension: the kernel-compilation counterpoint                      *)

let build_bench () =
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
          text (Config.runtime_name runtime);
          T.num
            (T.Scaled { per = 1e9; digits = 1; unit = "s" })
            (Xc_apps.Kernel_build.build_ns p);
          T.num T.Ratio (Xc_apps.Kernel_build.relative_to_docker p);
        ])
    [
      Config.Docker;
      Config.Clear_container;
      Config.X_container;
      Config.Xen_container;
      Config.Gvisor;
    ];
  [
    Run.Section "Kernel compilation (tiny config): the process-churn counterpoint";
    Run.Table t;
    line "";
    line "(fork/exec-heavy work is where X-Containers give a little back - the";
    line " PV page-table tax of Section 5.4 - while ABOM still converts 95.3%";
    line " of the build's syscalls, keeping the gap small)";
  ]

(* ------------------------------------------------------------------ *)
(* Extension: memory density with ballooning/tmem                      *)

let density () =
  let t =
    T.create
      (("policy", T.Left)
      :: right [ "containers"; "tmem pool"; "shared-cache hits"; "vs static" ])
  in
  let static = Xc_apps.Density.run Xc_apps.Density.Static in
  List.iter
    (fun policy ->
      let r = Xc_apps.Density.run policy in
      T.add_row t
        [
          text (Xc_apps.Density.policy_name policy);
          T.int r.containers;
          (if r.tmem_pool_mb > 0 then
             T.num
               (T.Scaled { per = 1.; digits = 0; unit = "MB" })
               (float_of_int r.tmem_pool_mb)
           else text "-");
          (if r.est_page_cache_hit_gain > 0. then
             T.num (T.Percent 0) r.est_page_cache_hit_gain
           else text "-");
          T.num T.Ratio (Xc_apps.Density.density_gain static r);
        ])
    Xc_apps.Density.all_policies;
  [
    Run.Section "Memory density: X-Containers per 96GB host (Section 4.5 extension)";
    Run.Table t;
    line "";
    line "(20% of containers active; idle ones ballooned to the 64MB floor the";
    line " paper measured X-Containers to run at - the Section 4.5 limitation,";
    line " lifted with the mechanisms the paper cites)";
  ]

(* ------------------------------------------------------------------ *)
(* Extension: request hedging and pluggable LB policies                *)

module H = Xc_lb.Hedge
module P = Xc_lb.Policy

(* [v] against [base], signed. *)
let delta ~base v = T.num (T.Delta 1) ((v -. base) /. base)

(* One PS cloning point: the simulated run at [utilization] with [d]
   clones and, when the clones tile the backends, the closed form of
   random sub-cluster dispatch, exact for it and a reference line for
   the policies. *)
type ps_point = { u : float; d : int; r : H.result; oracle : float option }

let ps_point ?backends ~clones ?dispatch ?seed ~duration_ns u () =
  let cfg =
    H.config_for_utilization ?backends ~clones ?dispatch ?seed ~duration_ns
      ~utilization:u ()
  in
  let r = H.run cfg in
  let oracle =
    if cfg.backends mod clones = 0 then
      Some
        (Xc_lb.Oracle.cloned_mean_ns ~backends:cfg.backends ~clones
           ~arrival_rate_per_ns:cfg.arrival_rate_per_ns
           ~service_mean_ns:cfg.service_mean_ns)
    else None
  in
  { u; d = clones; r; oracle }

(* Clone work cancelled per busy backend-ns. *)
let hedge_share (r : H.result) =
  if r.busy_ns > 0. then r.cancelled_work_ns /. r.busy_ns else 0.

let dispatch_name = function
  | H.Subcluster -> "subcluster"
  | H.Policy k -> P.kind_to_string k

(* [xc lb sweep]: one cell per utilization. *)
let lb_sweep ~backends ~clones ~dispatch ~seed ~duration_ms ~utilizations =
  Run.Cells
    {
      shards =
        Array.of_list
          (List.map
             (ps_point ~backends ~clones ~dispatch ~seed
                ~duration_ns:(duration_ms *. 1e6))
             utilizations);
      report =
        (fun points ->
          let t =
            T.create
              ~title:
                (Printf.sprintf
                   "M/PS cloning sweep: %d backends, policy %s, d=%d (%gms window)"
                   backends (dispatch_name dispatch) clones duration_ms)
              (right [ "util"; "completed"; "sim mean"; "oracle mean"; "delta";
                       "p99"; "hedge share" ])
          in
          Array.iter
            (fun { u; r; oracle; _ } ->
              T.add_row t
                [
                  T.num (fixed 2) u;
                  T.int r.completed;
                  T.num (us 1) r.mean_ns;
                  (match oracle with Some o -> T.num (us 1) o | None -> text "-");
                  (match oracle with Some o -> delta ~base:o r.mean_ns | None -> text "-");
                  T.num (us 1) r.p99_ns;
                  T.num (T.Percent 1) (hedge_share r);
                ])
            points;
          Run.Table t
          ::
          (if dispatch = H.Subcluster then []
           else
             [
               line
                 "(oracle column is the random-subcluster closed form — exact \
                  only for --policy subcluster; the delta shows what the \
                  policy buys.)";
             ]));
    }

(* The Fig 9 policy race on [spec]'s priced cluster node: the
   home-pinned baseline ([combo = None]), then each (kind, clones)
   combo routing it.  The lb field never touches pricing, so every
   combo shares the priced base, which is priced here, before any
   runner switches tracing on. *)
type race_row = { combo : (P.kind * int) option; config : CS.config; r : CS.result }

let race spec combos =
  let base = List.hd (Driver.cluster spec) in
  List.map
    (fun combo () ->
      let config =
        match combo with
        | None -> base
        | Some (kind, clones) -> { base with CS.lb = Some { P.kind; clones } }
      in
      { combo; config; r = CS.run config })
    (None :: List.map Option.some combos)

let race_winner rows =
  match List.filter (fun row -> row.combo <> None) rows with
  | [] -> invalid_arg "Experiments.race_winner: no combo"
  | first :: rest ->
      List.fold_left
        (fun best row ->
          if row.r.p99_latency_ns < best.r.p99_latency_ns then row else best)
        first rest

(* [xc lb tail]'s race table and its winner, the lowest p99. *)
let race_report (spec : Spec.t) rows =
  let base_p99 = (List.hd rows).r.p99_latency_ns in
  let t =
    T.create
      ~title:
        (Printf.sprintf
           "Fig 9 queueing tail vs policy/clones: %s, %d containers x %d \
            connections"
           (Config.name spec.platform) spec.load.containers spec.load.connections)
      (("policy", T.Left)
      :: right [ "clones"; "p99"; "vs baseline"; "mean"; "req/s" ])
  in
  List.iter
    (fun { combo; r; _ } ->
      let policy, clones, vs =
        match combo with
        | None -> (text "home-pinned (baseline)", text "-", text "-")
        | Some (k, d) ->
            (text (P.kind_to_string k), T.int d, delta ~base:base_p99 r.p99_latency_ns)
      in
      T.add_row t
        [
          policy;
          clones;
          T.num (us 0) r.p99_latency_ns;
          vs;
          T.num (us 0) r.mean_latency_ns;
          T.num (fixed 0) r.throughput_rps;
        ])
    rows;
  let w = race_winner rows in
  let k, d = Option.get w.combo in
  ( [
      Run.Table t;
      line "";
      linef "winner: %s d=%d — p99 %.0fus vs baseline %.0fus (%+.1f%%)"
        (P.kind_to_string k) d
        (w.r.p99_latency_ns /. 1e3)
        (base_p99 /. 1e3)
        (100. *. ((w.r.p99_latency_ns -. base_p99) /. base_p99));
      line "";
    ],
    w )

(* One cell per point across three grids: the PS cloning simulator vs
   the analytic oracle (the differential), the policy comparison at
   fixed load, and the Fig 9 cluster race (baseline vs hedged routing,
   priced when the experiment list is built, so traced runs capture
   only the simulation's own spans and tail attribution stays
   exact). *)
type hedging_cell = H_oracle of ps_point | H_policy of P.kind * ps_point | H_race of race_row

let hedging () =
  let oracle_cells =
    List.concat_map
      (fun u ->
        List.map
          (fun d () -> H_oracle (ps_point ~clones:d ~duration_ns:4e9 u ()))
          [ 1; 2; 3 ])
      [ 0.3; 0.6 ]
  and policy_cells =
    List.concat_map
      (fun kind ->
        List.map
          (fun d () ->
            let p = ps_point ~clones:d ~dispatch:(H.Policy kind) ~duration_ns:1e9 0.65 () in
            H_policy (kind, p))
          [ 1; 2 ])
      P.all_kinds
  and race_cells =
    List.map
      (fun row () -> H_race (row ()))
      (race Spec.cluster [ (P.Least_loaded, 1); (P.Least_loaded, 2) ])
  in
  Run.Cells
    {
      shards = Array.of_list (oracle_cells @ policy_cells @ race_cells);
      report =
        (fun cells ->
          let oracle =
            T.create
              ~title:
                "Differential: cloned M/PS simulation vs closed form (6 \
                 backends, subcluster dispatch)"
              (right [ "util"; "clones"; "sim mean"; "oracle"; "delta"; "p99" ])
          and policy =
            T.create
              ~title:
                "Policy race at 65% per-backend load (hedge share = clone \
                 work cancelled / busy time)"
              (("policy", T.Left)
              :: right [ "clones"; "mean"; "p99"; "hedge share" ])
          and cluster =
            T.create
              ~title:
                "Fig 9 cluster tail: X-Container, 4 containers x 5 \
                 connections (the saturated point)"
              (("routing", T.Left) :: right [ "p99"; "vs baseline"; "req/s" ])
          in
          (* The first race row is the home-pinned baseline. *)
          let base_p99 = ref nan in
          Array.iter
            (function
              | H_oracle { u; d; r; oracle = o } ->
                  let o = Option.get o in
                  T.add_row oracle
                    [
                      T.num (fixed 2) u;
                      T.int d;
                      T.num (us 1) r.mean_ns;
                      T.num (us 1) o;
                      delta ~base:o r.mean_ns;
                      T.num (us 1) r.p99_ns;
                    ]
              | H_policy (kind, { d; r; _ }) ->
                  T.add_row policy
                    [
                      text (P.kind_to_string kind);
                      T.int d;
                      T.num (us 1) r.mean_ns;
                      T.num (us 1) r.p99_ns;
                      T.num (T.Percent 1) (hedge_share r);
                    ]
              | H_race { combo; r; _ } ->
                  let label, vs =
                    match combo with
                    | None ->
                        base_p99 := r.p99_latency_ns;
                        ("home-pinned (baseline)", text "-")
                    | Some (k, d) ->
                        ( Printf.sprintf "%s d=%d" (P.kind_to_string k) d,
                          delta ~base:!base_p99 r.p99_latency_ns )
                  in
                  T.add_row cluster
                    [
                      text label;
                      T.num (us 0) r.p99_latency_ns;
                      vs;
                      T.num (fixed 0) r.throughput_rps;
                    ])
            cells;
          [
            Run.Section
              "Request hedging: cloning, LB policies and the PS oracle \
               (extension)";
            Run.Table oracle;
            line "";
            Run.Table policy;
            line "";
            Run.Table cluster;
            line "";
            line
              "(synchronized clones share their sub-cluster's PS capacity, so \
               cloning only";
            line
              " pays off when spare capacity exists: at the saturated Fig 9 \
               point the d=2";
            line
              " hedge inflates the tail while least-loaded routing alone trims \
               it - the";
            line
              " oracle's effective utilization d.lambda.E[S]/n says exactly \
               when to stop)";
          ]);
    }

(* ------------------------------------------------------------------ *)
(* Extension: million-container cluster scale via tiered fidelity      *)

(* The fluid tier solves each node's closed loop analytically, so a
   10^6-container fleet costs a few million MVA sweep steps instead of
   billions of scheduler events; the differential cells re-run
   overlapping scales through both tiers and print the disagreement
   (the cluster-fluid tests gate it outside the scheduling knee).
   Configs are priced when the experiment list is built — before the
   harness can enable tracing — so traced runs capture only the
   simulation's own spans (the hedging precedent).  The fleet shard
   count is fixed, so event counts are --jobs-invariant. *)
type cluster_scale_cell =
  | C_fleet of {
      nodes : int;
      containers : int;
      rps : float;
      mean_sum_ns : float;
      busy_sum : float;
    }
  | C_diff of { label : string; exact : CS.result; fluid : CS.result }
  | C_mixed of { label : string; r : CS.result }

(* [diffs] are the [(mode, containers, connections)] differential
   points; the mixed cell samples 1 in 10 containers exactly. *)
let cluster_scale ~fleet_nodes ~fleet_shards ~diffs ~mixed_containers =
  (* Heterogeneous fleet of X-Container nodes at the Fig 9 point
     ([Spec.cluster]): node sizes cycle 800-1200 containers (mean 1000)
     at 5 connections, so the fleet totals fleet_nodes x 1000
     containers. *)
  let bases =
    Array.map
      (fun containers ->
        List.hd
          (Driver.cluster
             { Spec.cluster with load = { Spec.cluster.load with containers } }))
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
      report =
        (fun cells ->
          let nodes = ref 0
          and conts = ref 0
          and rps = ref 0.
          and mean = ref 0.
          and busy = ref 0. in
          let t =
            T.create
              ~title:
                "Differential: fluid (analytic) vs exact (event-driven) on \
                 overlapping scales"
              (("point", T.Left)
              :: right [ "exact mean"; "fluid mean"; "delta"; "exact busy";
                         "fluid busy" ])
          in
          let mixed = ref [] in
          Array.iter
            (function
              | C_fleet f ->
                  nodes := !nodes + f.nodes;
                  conts := !conts + f.containers;
                  rps := !rps +. f.rps;
                  mean := !mean +. f.mean_sum_ns;
                  busy := !busy +. f.busy_sum
              | C_diff { label; exact; fluid } ->
                  T.add_row t
                    [
                      text label;
                      T.num (ms 1) exact.CS.mean_latency_ns;
                      T.num (ms 1) fluid.CS.mean_latency_ns;
                      T.num (T.Delta 1)
                        ((fluid.CS.mean_latency_ns -. exact.CS.mean_latency_ns)
                        /. exact.CS.mean_latency_ns);
                      T.num (T.Percent 0) exact.CS.busy_fraction;
                      T.num (T.Percent 0) fluid.CS.busy_fraction;
                    ]
              | C_mixed { label; r } ->
                  mixed :=
                    linef
                      "mixed tier (%s): mean %.1fms (fluid), p99 %.1fms (exact \
                       slice), %s req/s"
                      label
                      (r.CS.mean_latency_ns /. 1e6)
                      (r.CS.p99_latency_ns /. 1e6)
                      (T.fmt_si r.CS.throughput_rps)
                    :: !mixed)
            cells;
          [
            Run.Section
              "Cluster scale: tiered fidelity over a million containers \
               (extension)";
            linef
              "fluid fleet: %d node(s), %d containers — %s req/s, mean \
               latency %.1fms, mean busy %.0f%%"
              !nodes !conts (T.fmt_si !rps)
              (!mean /. float_of_int !nodes /. 1e6)
              (100. *. !busy /. float_of_int !nodes);
            line "";
            Run.Table t;
            line "";
          ]
          @ List.rev !mixed
          @ [
              line "";
              line
                "(the fluid tier prices a node in one O(clients) MVA sweep - \
                 a million";
              line
                " containers in well under a second - and tracks the exact \
                 tier within a";
              line
                " few percent at light and saturated load; the mixed tier \
                 adds a seeded";
              line
                " exact slice so p99/tail attribution survives at fleet \
                 scale)";
            ]);
    }

(* [xc cluster]: one cell per node of [spec] at its fidelity tier,
   reported as the node table (up to 8 nodes) and the nodes folded by
   [Driver.cluster_row]; the fluid tier's p99 reads "-". *)
let cluster (spec : Spec.t) =
  Run.Cells
    {
      shards =
        Array.of_list
          (List.map (fun c () -> CS.run_fidelity spec.fidelity c) (Driver.cluster spec));
      report =
        (fun results ->
          let results = Array.to_list results and l = spec.load in
          let t =
            T.create
              (right [ "node"; "req/s"; "mean"; "p99"; "busy"; "cont-switches" ])
          in
          List.iteri
            (fun i (r : CS.result) ->
              T.add_row t
                [
                  T.int i;
                  T.num T.Si r.throughput_rps;
                  T.num (us 0) r.mean_latency_ns;
                  (if Float.is_nan r.p99_latency_ns then text "-"
                   else T.num (us 0) r.p99_latency_ns);
                  T.num (T.Percent 0) r.busy_fraction;
                  T.int r.container_switches;
                ])
            results;
          let total = Driver.cluster_row spec results in
          let mean_busy =
            List.fold_left (fun a (r : CS.result) -> a +. r.busy_fraction) 0. results
            /. float_of_int (List.length results)
          in
          [
            linef
              "xc cluster: %s, %s tier — %d node(s) x %d container(s) x %d \
               connection(s) (%d containers total)"
              (Config.name spec.platform)
              (match spec.fidelity with
              | CS.Exact -> "exact"
              | CS.Fluid -> "fluid"
              | CS.Mixed { sample_rate } -> Printf.sprintf "mixed(1/%d)" sample_rate)
              l.nodes l.containers l.connections (l.nodes * l.containers);
            line "";
          ]
          @ (if l.nodes > 8 then [] else [ Run.Table t ])
          @ [
              line "";
              linef
                "total: %s req/s   mean latency %.0fus   worst p99 %s   mean \
                 busy %.0f%%"
                (T.fmt_si total.throughput_rps)
                (total.mean_ns /. 1e3)
                (if Float.is_nan total.p99_ns then "-"
                 else Printf.sprintf "%.0fus" (total.p99_ns /. 1e3))
                (100. *. mean_busy);
            ]);
    }

(* ------------------------------------------------------------------ *)
(* Causal what-if profiler (extension): per point, predict the virtual
   speedup from the traced baseline's attribution and validate it
   against an actually re-priced rerun.  The light points (1
   connection) are the regime where the linear prediction holds; the
   knee points (5 connections, the fig9 queueing regime) are kept on
   purpose to show where it breaks.  One cell on purpose: the
   baselines flip the process-wide trace flag ([Causal.sweep_points]),
   so they must not run concurrently with cells that assume the flag is
   stable — and the whole grid is cheap (100 ms windows at 1-5
   connections). *)

let causal () =
  let module Causal = Xc_obs.Causal in
  (* Configs are priced when the experiment list is built, before
     --trace can turn the ring on.  Each (runtime x connections)
     target's baseline runs — and is traced — once, shared by every
     what-if point against it. *)
  let point ?(knee = false) runtime mech =
    let rt = Spec.runtime_to_string runtime in
    let connections = if knee then Spec.cluster.load.connections else 1 in
    let spec =
      {
        Spec.cluster with
        platform = Config.make runtime;
        load =
          { Spec.cluster.load with connections; duration_ms = 100.; warmup_ms = 20. };
      }
    in
    ( (rt ^ "/" ^ mech ^ if knee then "/knee" else ""),
      {
        Causal.label = Printf.sprintf "%s/c%d" rt connections;
        config = List.hd (Driver.cluster spec);
      },
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
      match Causal.sweep_points ~jobs:1 points with
      | Error m -> invalid_arg ("causal " ^ m)
      | Ok (baselines, points) ->
          Run.Section
            "Causal what-if profiler: virtual speedups, predicted vs rerun \
             (extension)"
          :: List.concat_map
               (fun (label, b) -> lines (Causal.render_baseline ~label b) @ [ line "" ])
               baselines
          @ lines (Causal.render_points points)
          @ [
              line "";
              line "(off the knee — 1 connection per container — the linear";
              line
                " attribution-share prediction lands within a few percent of \
                 the";
              line
                " re-priced rerun; the c=5 knee rows diverge on purpose: \
                 queueing";
              line
                " amplification is exactly what a linear share cannot see)";
            ])

(* ------------------------------------------------------------------ *)
(* Smoke: every experiment family at tiny durations, cheap enough for
   tier-1 (`dune runtest` runs it at --jobs 1 and 2 and compares). *)

let table1_smoke () =
  Run.Section "Smoke: Table 1, 2k invocations"
  :: List.map
       (fun (m : Xc_apps.Profiles.measurement) ->
         linef "%-20s %.1f%%" m.profile.name (100. *. m.auto_reduction))
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
              Driver.closed_result
                { Spec.default with Spec.platform; load = smoke_load }
            in
            (Config.name platform, r.CL.throughput_rps))
          [| Config.Docker; Config.X_container |];
      report =
        (fun rows ->
          Run.Section "Smoke: closed-loop macro, 20ms simulated"
          :: Array.to_list
               (Array.map
                  (fun (name, rps) -> linef "%-24s %s req/s" name (T.fmt_si rps))
                  rows));
    }

let latency_smoke () =
  let r =
    Driver.open_result
      {
        Spec.default with
        Spec.load = { smoke_load with Spec.shape = Spec.Open; rate = 0.25 };
      }
  in
  [
    Run.Section "Smoke: open-loop latency, 20ms simulated";
    linef "p50 %.0fus  p99 %.0fus" (r.p50_ns /. 1e3) (r.p99_ns /. 1e3);
  ]

let fig8sim_smoke () =
  scheduler
    (fun mode n ->
      {
        (CS.default_config mode ~containers:n) with
        duration_ns = 2e7;
        warmup_ns = 2e6;
        client_rtt_ns = 1e6;
      })
    [ 4; 8 ]
    (fun rows ->
      Run.Section "Smoke: cluster scheduler sweep, 20ms simulated, inner fan-out"
      :: Array.to_list
           (Array.map
              (fun ((c : CS.config), (r : CS.result)) ->
                linef "%-12s n=%d  %s req/s  %d container switches" (mode_name c.mode)
                  c.containers
                  (T.fmt_si r.throughput_rps)
                  r.container_switches)
              rows))

(* ------------------------------------------------------------------ *)
(* The experiment table is Xcontainers.Inventory.all: every inventory id
   maps to its cells here, and an id without a case aborts the bench at
   startup, naming it. *)

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
  | "fig8sim" -> fig8sim ()
  | "security" -> whole security
  | "migration" -> whole migration
  | "clone" -> whole (fun () -> clone ~memory_mb:128 ~resident_pages:2048)
  | "latency" -> latency ()
  | "coldstart" -> whole (fun () -> coldstart ~rates:[ 0.02; 0.05; 0.5 ])
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
  | id -> invalid_arg (Printf.sprintf "bench: inventory id %S has no printer" id)

let bench () =
  List.map
    (fun (e : Xcontainers.Inventory.entry) -> (e.id, printer e.id))
    Xcontainers.Inventory.all

let smoke () =
  List.map
    (fun n -> (n, printer n))
    [
      "fig4"; "fig5"; "fig6"; "fig8"; "fig9"; "boot"; "ablation"; "security";
      "migration"; "clone"; "coldstart"; "build-bench"; "density";
    ]
  @ [
      ("table1-smoke", whole table1_smoke);
      ("macro-smoke", macro_smoke ());
      ("latency-smoke", whole latency_smoke);
      ("fig8sim-smoke", fig8sim_smoke ());
      ( "cluster-smoke",
        cluster_scale ~fleet_nodes:64 ~fleet_shards:8
          ~diffs:[ (CS.Hierarchical, 8, 5) ]
          ~mixed_containers:32 );
    ]
