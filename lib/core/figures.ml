module Config = Xc_platforms.Config
module Platform = Xc_platforms.Platform
module Closed_loop = Xc_platforms.Closed_loop
module Unixbench = Xc_apps.Unixbench

(* Figure 3 *)

type macro_app = Nginx_ab | Memcached_app | Redis_app

let macro_app_name = function
  | Nginx_ab -> "NGINX"
  | Memcached_app -> "Memcached"
  | Redis_app -> "Redis"

let macro_apps = [ Nginx_ab; Memcached_app; Redis_app ]

type macro_result = {
  config : Config.t;
  throughput_rps : float;
  mean_latency_ns : float;
  p99_latency_ns : float;
}

(* The cloud instances expose 4 cores (8 threads); gVisor cannot run more
   than one process concurrently (Section 2.3). *)
let cores = 4

let clamp_units config units =
  if Config.supports config.Config.runtime Config.Multicore then units else 1

(* Server builders for the extended application sweep (harness use). *)
let server_for_public (config : Config.t) platform app : Closed_loop.server =
  let clamp (s : Closed_loop.server) =
    { s with units = clamp_units config s.Closed_loop.units }
  in
  clamp
    (match app with
    | `Nginx -> Xc_apps.Nginx.server ~workers:4 ~keepalive:false ~cores platform
    | `Memcached -> Xc_apps.Memcached.server ~cores platform
    | `Redis -> Xc_apps.Redis.server ~cores platform
    | `Etcd -> Xc_apps.Etcd.server ~cores platform
    | `Mongo -> Xc_apps.Mongodb.server ~cores platform
    | `Postgres -> Xc_apps.Postgres.server ~cores platform
    | `Rabbitmq -> Xc_apps.Rabbitmq.server ~cores platform
    | `Mysql -> Xc_apps.Mysql.server ~cores platform
    | `Fluentd -> Xc_apps.Fluentd.server ~cores platform
    | `Elasticsearch -> Xc_apps.Elasticsearch.server ~cores platform
    | `Influxdb -> Xc_apps.Influxdb.server ~cores platform)

let server_for config platform app =
  server_for_public config platform
    (match app with
    | Nginx_ab -> `Nginx
    | Memcached_app -> `Memcached
    | Redis_app -> `Redis)

let fig3 ?(seed = 42) cloud app =
  List.map
    (fun config ->
      let platform = Platform.create config in
      let server = server_for config platform app in
      (* The client's concurrency: ab, memtier_benchmark, redis-benchmark. *)
      let connections =
        match app with Nginx_ab -> 100 | Memcached_app -> 200 | Redis_app -> 50
      in
      let result =
        Closed_loop.run { Closed_loop.default_config with connections; seed } server
      in
      {
        config;
        throughput_rps = result.Closed_loop.throughput_rps;
        mean_latency_ns = result.Closed_loop.mean_latency_ns;
        p99_latency_ns = result.Closed_loop.p99_ns;
      })
    (Config.ten_configurations cloud)

let baseline_name = "Docker"

let relative_of results value =
  let base =
    match
      List.find_opt (fun r -> Config.name r.config = baseline_name) results
    with
    | Some r -> value r
    | None -> invalid_arg "no patched Docker baseline in results"
  in
  List.map (fun r -> (Config.name r.config, value r /. base)) results

let relative_throughput results = relative_of results (fun r -> r.throughput_rps)
let relative_latency results = relative_of results (fun r -> r.mean_latency_ns)

(* Figures 4 and 5 *)

let micro_rate config ~concurrent test =
  let platform = Platform.create config in
  if concurrent then Unixbench.concurrent_rate platform ~copies:4 test
  else Unixbench.rate platform test

let micro_relative cloud ~concurrent test =
  let configs = Config.ten_configurations cloud in
  let rates =
    List.map (fun c -> (Config.name c, micro_rate c ~concurrent test)) configs
  in
  let base =
    match List.assoc_opt baseline_name rates with
    | Some v -> v
    | None -> invalid_arg "no patched Docker baseline"
  in
  List.map (fun (n, v) -> (n, v /. base)) rates

let fig4 cloud ~concurrent = micro_relative cloud ~concurrent Unixbench.Syscall_rate
let fig5 cloud ~concurrent test = micro_relative cloud ~concurrent test

(* Figure 6 *)

type fig6 = {
  nginx_1worker : (string * float) list;
  nginx_4workers : (string * float) list;
  php_mysql : (string * string * float) list;
}

let fig6 () =
  let module S = Xc_apps.Serverless in
  let contenders = [ S.G; S.U; S.X ] in
  {
    nginx_1worker =
      List.map (fun c -> (S.contender_name c, S.nginx_one_worker c)) contenders;
    nginx_4workers =
      List.filter_map
        (fun c ->
          Option.map (fun v -> (S.contender_name c, v)) (S.nginx_four_workers c))
        contenders;
    php_mysql =
      List.concat_map
        (fun c ->
          List.filter_map
            (fun topo ->
              Option.map
                (fun v -> (S.contender_name c, S.topology_name topo, v))
                (S.php_mysql c topo))
            [ S.Shared; S.Dedicated; S.Dedicated_merged ])
        contenders;
  }

(* Figure 8 *)

let fig8_runtimes = [ Config.Docker; Config.X_container; Config.Xen_hvm; Config.Xen_pv ]

let fig8 () =
  List.map
    (fun runtime ->
      (runtime, Xc_apps.Scalability.sweep runtime Xc_apps.Scalability.default_counts))
    fig8_runtimes

(* Figure 9 *)

let fig9 () = List.map Xc_apps.Lb_experiment.run Xc_apps.Lb_experiment.all

(* Table 1 *)

let table1 ?(invocations = 50_000) () =
  List.map (fun p -> Xc_apps.Profiles.measure ~invocations p) Xc_apps.Profiles.all

(* Boot times *)

type boot_row = { label : string; breakdown : Boot.breakdown }

let boot_times () =
  [
    { label = "Docker container"; breakdown = Boot.docker () };
    { label = "X-Container (xl toolstack)"; breakdown = Boot.xcontainer () };
    {
      label = "X-Container (LightVM toolstack)";
      breakdown = Boot.xcontainer ~toolstack:Boot.Lightvm ();
    };
    { label = "Full Xen VM (Ubuntu guest)"; breakdown = Boot.xen_vm () };
  ]
