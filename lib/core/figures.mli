(** The paper's evaluation figures as runnable experiments.

    One function per figure/table of Section 5, returning structured
    results; the benchmark harness renders them as tables and the test
    suite asserts their shapes (who wins, by roughly what factor).  All
    runs are deterministic given the seed. *)

module Config = Xc_platforms.Config

(** {2 Figure 3: macrobenchmarks} *)

type macro_app = Nginx_ab | Memcached_app | Redis_app

val macro_app_name : macro_app -> string
val macro_apps : macro_app list

type macro_result = {
  config : Config.t;
  throughput_rps : float;
  mean_latency_ns : float;
  p99_latency_ns : float;
}

val fig3 : ?seed:int -> Config.cloud -> macro_app -> macro_result list
(** All ten configurations of Section 5.1 on one cloud. *)

val server_for_public :
  Config.t ->
  Xc_platforms.Platform.t ->
  [ `Nginx
  | `Memcached
  | `Redis
  | `Etcd
  | `Mongo
  | `Postgres
  | `Rabbitmq
  | `Mysql
  | `Fluentd
  | `Elasticsearch
  | `Influxdb ] ->
  Xc_platforms.Closed_loop.server
(** A closed-loop server for any modelled application, with the
    platform's multicore capability respected (used by the extended
    macro sweep bench). *)

val relative_throughput : macro_result list -> (string * float) list
(** Normalised to patched Docker (higher is better). *)

val relative_latency : macro_result list -> (string * float) list
(** Normalised to patched Docker (lower is better). *)

(** {2 Figures 4 and 5: microbenchmarks} *)

val fig4 : Config.cloud -> concurrent:bool -> (string * float) list
(** Relative system-call throughput, normalised to patched Docker. *)

val fig5 :
  Config.cloud -> concurrent:bool -> Xc_apps.Unixbench.test ->
  (string * float) list
(** One Figure 5 panel group: relative score per configuration. *)

(** {2 Figure 6: LibOS comparison} *)

type fig6 = {
  nginx_1worker : (string * float) list;  (** G/U/X requests per second *)
  nginx_4workers : (string * float) list;  (** G/X *)
  php_mysql : (string * string * float) list;
      (** contender, topology, requests per second *)
}

val fig6 : unit -> fig6

(** {2 Figure 8: scalability} *)

val fig8 : unit -> (Config.runtime * Xc_apps.Scalability.point list) list

(** {2 Figure 9: load balancing} *)

val fig9 : unit -> Xc_apps.Lb_experiment.result list

(** {2 Table 1} *)

val table1 : ?invocations:int -> unit -> Xc_apps.Profiles.measurement list

(** {2 Section 4.5: boot times} *)

type boot_row = { label : string; breakdown : Boot.breakdown }

val boot_times : unit -> boot_row list
