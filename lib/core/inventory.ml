type kind = Paper_table | Paper_figure | Paper_section | Extension

type entry = {
  id : string;
  kind : kind;
  paper_ref : string;
  title : string;
  modules : string list;
}

let all =
  [
    {
      id = "table1";
      kind = Paper_table;
      paper_ref = "Table 1";
      title = "ABOM syscall reduction across twelve applications";
      modules = [ "Xc_isa.Builder"; "Xc_abom.Patcher"; "Xc_apps.Profiles" ];
    };
    {
      id = "fig3";
      kind = Paper_figure;
      paper_ref = "Figure 3";
      title = "Macrobenchmarks: NGINX, memcached, Redis on two clouds";
      modules =
        [ "Xc_apps.Nginx"; "Xc_apps.Memcached"; "Xc_apps.Redis";
          "Xc_platforms.Closed_loop"; "Xcontainers.Figures" ];
    };
    {
      id = "fig4";
      kind = Paper_figure;
      paper_ref = "Figure 4";
      title = "Relative raw system-call throughput";
      modules = [ "Xc_apps.Unixbench"; "Xc_platforms.Syscall_path" ];
    };
    {
      id = "fig5";
      kind = Paper_figure;
      paper_ref = "Figure 5";
      title = "UnixBench microbenchmarks + iperf";
      modules = [ "Xc_apps.Unixbench"; "Xc_net.Tcp_model" ];
    };
    {
      id = "fig6";
      kind = Paper_figure;
      paper_ref = "Figure 6";
      title = "Unikernel / Graphene / X-Container comparison";
      modules = [ "Xc_apps.Serverless"; "Xc_apps.Php_app"; "Xc_apps.Mysql" ];
    };
    {
      id = "fig8";
      kind = Paper_figure;
      paper_ref = "Figure 8";
      title = "Scalability to 400 containers";
      modules = [ "Xc_apps.Scalability"; "Xc_platforms.Platform" ];
    };
    {
      id = "fig9";
      kind = Paper_figure;
      paper_ref = "Figure 9";
      title = "Kernel-level load balancing (HAProxy vs IPVS)";
      modules = [ "Xc_apps.Lb_experiment"; "Xc_net.Load_balancer" ];
    };
    {
      id = "boot";
      kind = Paper_section;
      paper_ref = "§4.5";
      title = "Instantiation time (xl vs LightVM toolstacks)";
      modules = [ "Xcontainers.Boot"; "Xc_hypervisor.Xenstore" ];
    };
    {
      id = "ablation";
      kind = Extension;
      paper_ref = "§§3.2, 4.2-4.4";
      title = "Each ABI modification removed; SMP-off customization";
      modules = [ "Xc_platforms.Ablation" ];
    };
    {
      id = "fig8sim";
      kind = Extension;
      paper_ref = "Figure 8";
      title = "Event-driven flat vs hierarchical scheduler simulation";
      modules = [ "Xc_platforms.Cluster_sim" ];
    };
    {
      id = "security";
      kind = Extension;
      paper_ref = "§§2.2, 3.4";
      title = "TCB and attack-surface comparison";
      modules = [ "Xcontainers.Security"; "Xc_hypervisor.Hypercall" ];
    };
    {
      id = "migration";
      kind = Extension;
      paper_ref = "§3.3";
      title = "Pre-copy live migration vs dirty rate";
      modules = [ "Xc_hypervisor.Migration" ];
    };
    {
      id = "clone";
      kind = Extension;
      paper_ref = "§4.5";
      title = "Cold boot vs SnowFlock-style cloning";
      modules = [ "Xcontainers.Cloning" ];
    };
    {
      id = "latency";
      kind = Extension;
      paper_ref = "§1 (serverless motivation)";
      title = "Open-loop latency vs load";
      modules = [ "Xc_platforms.Open_loop" ];
    };
    {
      id = "coldstart";
      kind = Extension;
      paper_ref = "§5.5 (serverless motivation)";
      title = "Serverless cold-start tails by spawn path";
      modules = [ "Xc_apps.Coldstart"; "Xcontainers.Cloning" ];
    };
    {
      id = "macro-extra";
      kind = Extension;
      paper_ref = "Table 1 applications";
      title = "Relative throughput across eleven applications";
      modules =
        [ "Xc_apps.Etcd"; "Xc_apps.Mongodb"; "Xc_apps.Postgres";
          "Xc_apps.Rabbitmq"; "Xc_apps.Fluentd"; "Xc_apps.Elasticsearch";
          "Xc_apps.Influxdb" ];
    };
    {
      id = "density";
      kind = Extension;
      paper_ref = "\xc2\xa74.5";
      title = "Memory density with ballooning and tmem";
      modules = [ "Xc_apps.Density"; "Xc_hypervisor.Balloon" ];
    };
    {
      id = "build-bench";
      kind = Extension;
      paper_ref = "Table 1 (Kernel Compilation)";
      title = "Kernel build: the process-churn counterpoint";
      modules = [ "Xc_apps.Kernel_build" ];
    };
    {
      id = "hedging";
      kind = Extension;
      paper_ref = "Figure 9 (load balancing)";
      title = "Request hedging: cloning oracle, policy race, cluster cells";
      modules = [ "Xc_lb.Policy"; "Xc_lb.Hedge"; "Xc_lb.Oracle"; "Xc_platforms.Cluster_sim" ];
    };
    {
      id = "cluster-scale";
      kind = Extension;
      paper_ref = "Figure 8 (scalability)";
      title = "Cluster fidelity tiers: fluid fleet, exact diffs, mixed slice";
      modules = [ "Xc_platforms.Cluster_sim"; "Xc_sim.Parallel" ];
    };
    {
      id = "causal";
      kind = Extension;
      paper_ref = "§4 (overhead attribution)";
      title = "Causal what-if profiler: predicted vs rerun virtual speedups";
      modules = [ "Xc_obs.Critical_path"; "Xc_obs.Whatif"; "Xc_obs.Causal" ];
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
let paper_entries = List.filter (fun e -> e.kind <> Extension) all
let extension_entries = List.filter (fun e -> e.kind = Extension) all

let kind_name = function
  | Paper_table -> "paper table"
  | Paper_figure -> "paper figure"
  | Paper_section -> "paper section"
  | Extension -> "extension"

let pp_entry fmt e =
  Format.fprintf fmt "%-12s %-14s %-24s %s" e.id (kind_name e.kind) e.paper_ref
    e.title
