(* Scalability, two ways: the analytic Figure 8 model and the
   event-driven two-level scheduler simulation, side by side — the
   hierarchical-scheduling claim shown both as arithmetic and as
   emergent behaviour.

   Run with:  dune exec examples/scalability_sweep.exe *)

module CS = Xc_platforms.Cluster_sim

let () =
  print_endline "Figure 8 two ways: analytic model vs event-driven simulation";
  print_endline "(NGINX+PHP-FPM containers, 16 cores, 5 connections each)";
  print_newline ();
  let t =
    Xc_sim.Table.create
      [
        ("containers", Xc_sim.Table.Right);
        ("analytic Docker", Xc_sim.Table.Right);
        ("analytic XC", Xc_sim.Table.Right);
        ("simulated flat", Xc_sim.Table.Right);
        ("simulated hier", Xc_sim.Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let analytic runtime =
        (Xc_apps.Scalability.run runtime ~containers:n).throughput_rps
      in
      let simulated mode = (CS.run (CS.default_config mode ~containers:n)).throughput_rps in
      Xc_sim.Table.add_row t
        [
          Xc_sim.Table.int n;
          Xc_sim.Table.num Xc_sim.Table.Si (analytic Xc_platforms.Config.Docker);
          Xc_sim.Table.num Xc_sim.Table.Si (analytic Xc_platforms.Config.X_container);
          Xc_sim.Table.num Xc_sim.Table.Si (simulated CS.Flat);
          Xc_sim.Table.num Xc_sim.Table.Si (simulated CS.Hierarchical);
        ])
    [ 16; 64; 150; 400 ];
  Xc_sim.Table.print t;
  print_newline ();

  (* Where the time goes at N = 400. *)
  let flat = CS.run (CS.default_config CS.Flat ~containers:400) in
  let hier = CS.run (CS.default_config CS.Hierarchical ~containers:400) in
  Printf.printf "at 400 containers, per 0.3s of simulated time:\n";
  Printf.printf
    "  flat:          %5d container switches, %5d process switches, %.0fms burnt switching\n"
    flat.container_switches flat.process_switches (flat.switch_overhead_ns /. 1e6);
  Printf.printf
    "  hierarchical:  %5d container switches, %5d process switches, %.0fms burnt switching\n"
    hier.container_switches hier.process_switches (hier.switch_overhead_ns /. 1e6);
  Printf.printf
    "  the hierarchy batches: a core drains one container's processes before\n";
  Printf.printf
    "  moving on, so the expensive cross-container switches drop ~3x.\n"
