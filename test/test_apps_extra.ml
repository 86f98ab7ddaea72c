(* Tests for the extended application models (etcd, MongoDB, Postgres,
   RabbitMQ) and the cross-application sweep invariants. *)

open Xc_apps
module Config = Xc_platforms.Config
module Platform = Xc_platforms.Platform

let xc = Platform.create (Config.make Config.X_container)
let docker = Platform.create (Config.make Config.Docker)

let test_coverages () =
  let coverage (r : Recipe.t) = r.abom_coverage in
  Alcotest.(check (float 1e-9)) "etcd" 1.0 (coverage Etcd.mixed_request);
  Alcotest.(check (float 1e-9)) "mongo" 1.0 (coverage Mongodb.ycsb_a);
  Alcotest.(check (float 1e-9)) "postgres" 0.998 (coverage Postgres.transaction);
  Alcotest.(check (float 1e-9)) "rabbitmq" 0.986 (coverage Rabbitmq.publish_transient)

let test_sweep_ordering () =
  (* The Table 1 / Figure 3 story: XC's relative gain orders by syscall
     density.  memcached (syscall-dense) must gain more than Postgres
     (user-work-dense). *)
  let rel recipe =
    Recipe.service_ns docker recipe /. Recipe.service_ns xc recipe
  in
  Alcotest.(check bool) "memcached gains most" true
    (rel Memcached.mixed_request > rel Postgres.transaction);
  Alcotest.(check bool) "memcached gains more than mongo" true
    (rel Memcached.mixed_request > rel Mongodb.ycsb_a)

let test_all_apps_positive_everywhere () =
  let apps =
    [
      Etcd.mixed_request;
      Mongodb.ycsb_a;
      Postgres.transaction;
      Rabbitmq.publish_transient;
    ]
  in
  List.iter
    (fun runtime ->
      let p = Platform.create (Config.make runtime) in
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (r.Recipe.name ^ " on " ^ Config.runtime_name runtime)
            true
            (Recipe.service_ns p r > 0.))
        apps)
    [ Config.Docker; Config.Gvisor; Config.X_container; Config.Unikernel ]

let test_public_server_builder () =
  let config = Config.make Config.Gvisor in
  let p = Platform.create config in
  List.iter
    (fun app ->
      let s = Xcontainers.Figures.server_for_public config p app in
      (* gVisor cannot run processes concurrently: clamped to one unit. *)
      Alcotest.(check int) "gvisor single unit" 1 s.Xc_platforms.Closed_loop.units)
    [ `Nginx; `Memcached; `Etcd; `Postgres ]

let suites =
  [
    ( "apps.extra",
      [
        Alcotest.test_case "coverages" `Quick test_coverages;
        Alcotest.test_case "sweep ordering" `Quick test_sweep_ordering;
        Alcotest.test_case "positive everywhere" `Quick
          test_all_apps_positive_everywhere;
        Alcotest.test_case "public server builder" `Quick test_public_server_builder;
      ] );
  ]
