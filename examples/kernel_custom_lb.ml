(* Kernel customization case study (Section 5.7): because an X-Container
   brings its own kernel, it can load the IPVS modules and do kernel-level
   load balancing — impossible for a Docker container without root on the
   host.  Reproduces the Figure 9 comparison and explains each setup.

   Run with:  dune exec examples/kernel_custom_lb.exe *)

let () =
  print_endline "Three single-worker NGINX servers behind one load balancer";
  print_endline "(all containers on one physical machine)";
  print_newline ();

  let t =
    Xc_sim.Table.create
      [
        ("setup", Xc_sim.Table.Left);
        ("req/s", Xc_sim.Table.Right);
        ("LB cost/req", Xc_sim.Table.Right);
        ("bottleneck", Xc_sim.Table.Left);
        ("kernel modules?", Xc_sim.Table.Left);
      ]
  in
  List.iter
    (fun setup ->
      let r = Xc_apps.Lb_experiment.run setup in
      let mode =
        match setup with
        | Xc_apps.Lb_experiment.Docker_haproxy | Xc_apps.Lb_experiment.Xcontainer_haproxy
          ->
            Xc_net.Load_balancer.Haproxy
        | Xc_apps.Lb_experiment.Xcontainer_ipvs_nat -> Xc_net.Load_balancer.Ipvs_nat
        | Xc_apps.Lb_experiment.Xcontainer_ipvs_dr ->
            Xc_net.Load_balancer.Ipvs_direct_routing
      in
      Xc_sim.Table.add_row t
        [
          Xc_sim.Table.Text (Xc_apps.Lb_experiment.setup_name setup);
          Xc_sim.Table.num Xc_sim.Table.Si r.throughput_rps;
          Xc_sim.Table.num
            (Xc_sim.Table.Scaled { per = 1e3; digits = 1; unit = "us" })
            r.lb_service_ns;
          Xc_sim.Table.Text
            (match r.bottleneck with
            | `Balancer -> "load balancer"
            | `Backends -> "NGINX servers");
          Xc_sim.Table.Text
            (if Xc_net.Load_balancer.requires_kernel_modules mode then
               "yes (X-Containers only)"
             else "no");
        ])
    Xc_apps.Lb_experiment.all;
  Xc_sim.Table.print t;
  print_newline ();

  print_endline "Reading the table:";
  print_endline
    "- HAProxy is user-space: every request costs ~14 syscalls on the balancer.";
  print_endline
    "  On Docker each syscall pays the full (Meltdown-patched) trap; on an";
  print_endline
    "  X-Container ABOM turned them into function calls - about twice the";
  print_endline "  throughput from the same binary.";
  print_endline
    "- IPVS NAT moves balancing into the kernel (no syscalls), but still";
  print_endline
    "  carries responses back through the balancer: +12-18% more.";
  print_endline
    "- IPVS direct routing forwards requests only; responses go straight to";
  print_endline
    "  the clients.  The balancer stops being the bottleneck and the three";
  print_endline "  NGINX servers set the pace: ~2.5-3x over NAT."
