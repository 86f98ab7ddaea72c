(** The workload axis of a {!Spec}: the eleven modelled applications,
    keyed by their spec-file spelling ([nginx], [memcached], ...). *)

type tag =
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
  | `Influxdb ]

type t = {
  name : string;  (** spec-file spelling *)
  title : string;  (** display spelling (bench tables) *)
  tag : tag;  (** feeds [Figures.server_for_public] *)
  recipe : Xc_apps.Recipe.t;  (** per-request recipe for raw service times *)
}

val names : string list
val find : string -> t option

val find_exn : string -> t
(** Raises [Invalid_argument] on unknown names. *)
