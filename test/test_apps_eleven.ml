(* Tests for the final three Table 1 application models and the
   eleven-application sweep invariants. *)

open Xc_apps
module Config = Xc_platforms.Config
module Platform = Xc_platforms.Platform

let xc = Platform.create (Config.make Config.X_container)
let docker = Platform.create (Config.make Config.Docker)

let test_coverages_match_table1 () =
  let coverage (r : Recipe.t) = r.abom_coverage in
  Alcotest.(check (float 1e-9)) "fluentd" 0.994 (coverage Fluentd.steady_state);
  Alcotest.(check (float 1e-9)) "elasticsearch" 0.988 (coverage Elasticsearch.mixed_request);
  Alcotest.(check (float 1e-9)) "influxdb" 1.0 (coverage Influxdb.mixed_request);
  Alcotest.(check (float 1e-9)) "kernel build" 0.953 Kernel_build.abom_coverage

let test_elasticsearch_mix () =
  (* JVM-heavy: user work dominates, so the XC gain is small. *)
  let rel = Recipe.service_ns docker Elasticsearch.mixed_request /. Recipe.service_ns xc Elasticsearch.mixed_request in
  Alcotest.(check bool)
    (Printf.sprintf "ES near par on XC (%.2f)" rel)
    true (rel > 0.85 && rel < 1.15)

let test_eleven_apps_have_recipes_everywhere () =
  let apps =
    [
      Nginx.static_request_wrk;
      Memcached.mixed_request;
      Redis.request;
      Etcd.mixed_request;
      Mongodb.ycsb_a;
      Postgres.transaction;
      Rabbitmq.publish_transient;
      Mysql.mixed_query ~offline_patched:false;
      Fluentd.steady_state;
      Elasticsearch.mixed_request;
      Influxdb.mixed_request;
    ]
  in
  Alcotest.(check int) "eleven recipes" 11 (List.length apps);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Recipe.name ^ " coverage sane") true
        (r.Recipe.abom_coverage > 0.4 && r.Recipe.abom_coverage <= 1.0);
      Alcotest.(check bool) (r.Recipe.name ^ " positive on XC") true
        (Recipe.service_ns xc r > 0.))
    apps

let test_no_app_collapses_on_xc () =
  (* The paper's claim "competitive to or even outperform native
     containers for other benchmarks": no modelled app may lose more
     than ~15% on X-Containers. *)
  List.iter
    (fun (name, r) ->
      let rel = Recipe.service_ns docker r /. Recipe.service_ns xc r in
      Alcotest.(check bool)
        (Printf.sprintf "%s at %.2fx of Docker" name rel)
        true (rel > 0.85))
    [
      ("fluentd", Fluentd.steady_state);
      ("elasticsearch", Elasticsearch.mixed_request);
      ("influxdb", Influxdb.mixed_request);
      ("etcd", Etcd.mixed_request);
      ("mongodb", Mongodb.ycsb_a);
      ("postgres", Postgres.transaction);
    ]

let suites =
  [
    ( "apps.eleven",
      [
        Alcotest.test_case "coverages" `Quick test_coverages_match_table1;
        Alcotest.test_case "elasticsearch mix" `Quick test_elasticsearch_mix;
        Alcotest.test_case "recipes everywhere" `Quick
          test_eleven_apps_have_recipes_everywhere;
        Alcotest.test_case "no app collapses on XC" `Quick
          test_no_app_collapses_on_xc;
      ] );
  ]
