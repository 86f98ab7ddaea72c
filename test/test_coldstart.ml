(* Tests for the serverless cold-start extension. *)

module C = Xc_apps.Coldstart

let test_spawn_ordering () =
  Alcotest.(check bool) "clone fastest" true
    (C.spawn_ns C.Xc_clone < C.spawn_ns C.Xc_cold_lightvm);
  Alcotest.(check bool) "lightvm beats docker" true
    (C.spawn_ns C.Xc_cold_lightvm < C.spawn_ns C.Docker_spawn);
  Alcotest.(check bool) "docker beats xl" true
    (C.spawn_ns C.Docker_spawn < C.spawn_ns C.Xc_cold_xl)

let test_spawn_times_match_boot_models () =
  (* The inline constants must track the Boot/Cloning models. *)
  Alcotest.(check (float 1e6)) "xl" (Xcontainers.Boot.xcontainer ()).total_ns
    (C.spawn_ns C.Xc_cold_xl);
  Alcotest.(check (float 1e6)) "lightvm"
    (Xcontainers.Boot.xcontainer ~toolstack:Xcontainers.Boot.Lightvm ()).total_ns
    (C.spawn_ns C.Xc_cold_lightvm);
  Alcotest.(check (float 1e6)) "docker" (Xcontainers.Boot.docker ()).total_ns
    (C.spawn_ns C.Docker_spawn);
  let clone =
    Xcontainers.Cloning.clone
      (Xcontainers.Cloning.snapshot_of_parent ~memory_mb:128 ~resident_pages:2048)
  in
  Alcotest.(check (float 2e5)) "clone" clone.total_ns (C.spawn_ns C.Xc_clone)

let test_sparse_traffic_all_cold () =
  (* Gaps far above the keep-alive: every invocation is cold. *)
  let config =
    { (C.default_config ~rate_rps:0.005) with duration_ns = 3000e9 }
  in
  let r = C.run C.Xc_clone config in
  Alcotest.(check bool) "ran some" true (r.invocations > 3);
  Alcotest.(check bool) "nearly all cold" true (r.cold_fraction > 0.9)

let test_dense_traffic_mostly_warm () =
  let r = C.run C.Docker_spawn (C.default_config ~rate_rps:1.0) in
  Alcotest.(check bool) "mostly warm" true (r.cold_fraction < 0.1);
  (* Warm p50 is just the function time. *)
  Alcotest.(check bool) "p50 = service" true
    (Float.abs (r.p50_latency_ns -. 50e6) < 5e6)

let test_tail_reflects_spawn_path () =
  (* At a rate straddling the keep-alive, the p99 is the cold path. *)
  let config = C.default_config ~rate_rps:0.05 in
  let xl = C.run C.Xc_cold_xl config in
  let clone = C.run C.Xc_clone config in
  (* Spawn time shifts the keep-alive windows slightly, so the cold
     counts may differ by a little, not a lot. *)
  Alcotest.(check bool) "similar cold fraction" true
    (Float.abs (xl.cold_fraction -. clone.cold_fraction) < 0.15);
  Alcotest.(check bool) "xl tail ~3s" true (xl.p99_latency_ns > 2e9);
  Alcotest.(check bool) "clone tail ~56ms" true (clone.p99_latency_ns < 100e6);
  Alcotest.(check bool) "clone tail >30x better" true
    (xl.p99_latency_ns /. clone.p99_latency_ns > 30.)

let test_validation () =
  List.iter
    (fun rate_rps ->
      Alcotest.check_raises (Printf.sprintf "rate %g" rate_rps)
        (Invalid_argument "Coldstart.run: rate") (fun () ->
          ignore (C.run C.Xc_clone (C.default_config ~rate_rps))))
    [ 0.; -1.; Float.nan; Float.infinity ]

(* The arrival loop against the engine-driven run it replaced: every
   result field bit for bit, and the same events credited. *)
let differential =
  let gen =
    QCheck.Gen.(
      quad (oneofl C.all_paths) (float_range 0.01 5.)
        (frequency [ (1, return 0.); (3, float_range 0. 6e10) ])
        (pair (frequency [ (1, return 0.); (9, float_range 0. 2e11) ]) (int_range 0 10_000)))
  in
  let print (path, rate, keepalive_ns, (duration_ns, seed)) =
    Printf.sprintf "%s rate=%h keepalive_ns=%h duration_ns=%h seed=%d"
      (C.spawn_path_name path) rate keepalive_ns duration_ns seed
  in
  QCheck.Test.make ~name:"matches the engine-driven run" ~count:200 (QCheck.make ~print gen)
    (fun (path, rate_rps, keepalive_ns, (duration_ns, seed)) ->
      let config = { (C.default_config ~rate_rps) with keepalive_ns; duration_ns; seed } in
      let a, na = Ref_loops.counted (fun () -> C.run path config) in
      let b, nb = Ref_loops.counted (fun () -> Ref_loops.coldstart path config) in
      let same = Ref_loops.same_bits in
      na = nb && a.invocations = b.invocations && a.cold_starts = b.cold_starts
      && same a.cold_fraction b.cold_fraction
      && same a.p50_latency_ns b.p50_latency_ns
      && same a.p99_latency_ns b.p99_latency_ns)

let suites =
  [
    ( "coldstart",
      [
        Alcotest.test_case "spawn ordering" `Quick test_spawn_ordering;
        Alcotest.test_case "matches boot models" `Quick
          test_spawn_times_match_boot_models;
        Alcotest.test_case "sparse all cold" `Quick test_sparse_traffic_all_cold;
        Alcotest.test_case "dense mostly warm" `Quick test_dense_traffic_mostly_warm;
        Alcotest.test_case "tail reflects spawn path" `Quick
          test_tail_reflects_spawn_path;
        Alcotest.test_case "validation" `Quick test_validation;
        QCheck_alcotest.to_alcotest differential;
      ] );
  ]
