(* Serverless front-end scenario (the Section 5.5 motivation): a
   stateless NGINX driven by a closed-loop client, compared across the
   LibOS platforms, plus a full closed-loop simulation on X-Containers
   with latency percentiles.

   Run with:  dune exec examples/serverless_web.exe *)

module Config = Xc_platforms.Config
module Platform = Xc_platforms.Platform
module Closed_loop = Xc_platforms.Closed_loop

let () =
  print_endline "Stateless web serving across LibOS platforms";
  print_endline "(one NGINX worker, one dedicated core, wrk-style clients)";
  print_newline ();

  (* Deterministic single-core rates, as in Figure 6a. *)
  let t =
    Xc_sim.Table.create
      [ ("platform", Xc_sim.Table.Left); ("req/s", Xc_sim.Table.Right);
        ("note", Xc_sim.Table.Left) ]
  in
  List.iter
    (fun (c, note) ->
      Xc_sim.Table.add_row t
        [
          Xc_sim.Table.Text (Xc_apps.Serverless.contender_name c);
          Xc_sim.Table.num Xc_sim.Table.Si (Xc_apps.Serverless.nginx_one_worker c);
          Xc_sim.Table.Text note;
        ])
    [
      (Xc_apps.Serverless.G, "libOS on a full Linux host");
      (Xc_apps.Serverless.U, "rumprun unikernel, single process");
      (Xc_apps.Serverless.X, "X-Container");
    ];
  Xc_sim.Table.print t;
  print_newline ();

  (* A real closed-loop simulation on X-Containers: watch latency grow
     as concurrency pushes the worker to saturation. *)
  print_endline "X-Container closed-loop (1 worker): concurrency sweep";
  let platform = Platform.create (Config.make ~cloud:Config.Local_cluster Config.X_container) in
  let t =
    Xc_sim.Table.create
      [
        ("connections", Xc_sim.Table.Right);
        ("req/s", Xc_sim.Table.Right);
        ("p50 latency", Xc_sim.Table.Right);
        ("p99 latency", Xc_sim.Table.Right);
      ]
  in
  let us = Xc_sim.Table.Scaled { per = 1e3; digits = 0; unit = "us" } in
  List.iter
    (fun conns ->
      let server = Xc_apps.Nginx.server ~workers:1 ~cores:1 platform in
      let result =
        Closed_loop.run { Closed_loop.default_config with connections = conns } server
      in
      Xc_sim.Table.add_row t
        [
          Xc_sim.Table.int conns;
          Xc_sim.Table.num Xc_sim.Table.Si result.throughput_rps;
          Xc_sim.Table.num us result.p50_ns;
          Xc_sim.Table.num us result.p99_ns;
        ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  Xc_sim.Table.print t;
  print_newline ();

  (* Why X-Containers get there: the per-request bill. *)
  let recipe = Xc_apps.Nginx.static_request_wrk in
  print_endline "per-request service time by platform (same NGINX recipe):";
  List.iter
    (fun runtime ->
      let p = Platform.create (Config.make ~cloud:Config.Local_cluster ~meltdown_patched:false runtime) in
      Printf.printf "  %-16s %8.1f us\n"
        (Config.runtime_name runtime)
        (Xc_apps.Recipe.service_ns p recipe /. 1e3))
    [ Config.Docker; Config.Xen_container; Config.X_container; Config.Gvisor ]
