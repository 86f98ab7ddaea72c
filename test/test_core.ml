(* Tests for the public X-Containers API: specs, boot model, the Docker
   wrapper, running containers end to end, and the experiment harness. *)

open Xcontainers

let fresh_xkernel () = Xc_hypervisor.Xkernel.create ~pcpus:4 ~memory_mb:16384 ()

(* ---------------- Spec ---------------- *)

let test_spec_validation () =
  let ok = Spec.make ~name:"web" ~image:"nginx:1.13" () in
  (match Spec.validate ok with Ok _ -> () | Error e -> Alcotest.fail e);
  let check_err spec =
    match Spec.validate spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected validation error"
  in
  check_err (Spec.make ~name:"" ~image:"nginx:1.13" ());
  check_err (Spec.make ~vcpus:0 ~name:"x" ~image:"nginx:1.13" ());
  check_err (Spec.make ~memory_mb:32 ~name:"x" ~image:"nginx:1.13" ());
  check_err (Spec.make ~processes:0 ~name:"x" ~image:"nginx:1.13" ())

let test_spec_defaults () =
  let s = Spec.make ~name:"x" ~image:"redis:3.2.11" () in
  Alcotest.(check int) "128MB default (S5.6)" 128 s.Spec.memory_mb;
  Alcotest.(check int) "1 vcpu" 1 s.Spec.vcpus

(* ---------------- Boot ---------------- *)

let test_boot_times () =
  let xl = Boot.xcontainer () in
  Alcotest.(check (float 1.0)) "xl total 3s" 3e9 xl.Boot.total_ns;
  let lightvm = Boot.xcontainer ~toolstack:Boot.Lightvm () in
  Alcotest.(check bool) "lightvm under 200ms" true (lightvm.Boot.total_ns < 2e8);
  Alcotest.(check bool) "docker beats the xl toolstack" true
    ((Boot.docker ()).Boot.total_ns < xl.Boot.total_ns);
  Alcotest.(check bool) "lightvm toolstack beats docker" true
    (lightvm.Boot.total_ns < (Boot.docker ()).Boot.total_ns);
  Alcotest.(check bool) "full VM slowest" true
    ((Boot.xen_vm ()).Boot.total_ns > xl.Boot.total_ns)

(* ---------------- Docker wrapper ---------------- *)

let test_wrapper_registry () =
  let images = Docker_wrapper.registry () in
  Alcotest.(check bool) "at least the paper's images" true (List.length images >= 6);
  (match Docker_wrapper.pull "nginx:1.13" with
  | Ok i -> Alcotest.(check string) "exact" "nginx:1.13" i.Docker_wrapper.name
  | Error e -> Alcotest.fail e);
  (match Docker_wrapper.pull "redis:latest" with
  | Ok i -> Alcotest.(check string) "prefix match" "redis:3.2.11" i.Docker_wrapper.name
  | Error e -> Alcotest.fail e);
  match Docker_wrapper.pull "oracle:12c" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown image must fail"

(* ---------------- Xcontainer lifecycle ---------------- *)

let test_boot_and_run () =
  let xk = fresh_xkernel () in
  let spec = Spec.make ~name:"web" ~image:"nginx:1.13" () in
  match Xcontainer.boot ~xkernel:xk spec with
  | Error e -> Alcotest.fail e
  | Ok xc ->
      Alcotest.(check bool) "domain running" true
        (Xc_hypervisor.Domain.state (Xcontainer.domain xc) = Xc_hypervisor.Domain.Running);
      (* The bootloader spawned nginx master+worker without an init. *)
      Alcotest.(check bool) "processes spawned" true
        (List.length (Xcontainer.processes xc) >= 2);
      (* X-LibOS is configured as a LibOS: global kernel mappings. *)
      Alcotest.(check bool) "xlibos config" true
        (Xc_os.Kernel.config (Xcontainer.libos xc)).Xc_os.Kernel.kernel_global;
      (match Xcontainer.exec_program ~repeat:50 xc with
      | Ok Xc_isa.Machine.Halted -> ()
      | Ok _ -> Alcotest.fail "program did not halt"
      | Error e -> Alcotest.fail e);
      let stats = Xcontainer.syscall_stats xc in
      Alcotest.(check bool) "syscalls happened" true (stats.Xcontainer.total > 0);
      (* After the first pass every site is patched: reduction near 1. *)
      Alcotest.(check bool) "ABOM converted nearly all" true
        (stats.Xcontainer.reduction > 0.95);
      Alcotest.(check int) "total = trap + fast" stats.Xcontainer.total
        (stats.Xcontainer.via_trap + stats.Xcontainer.via_function_call);
      (match Xcontainer.profile xc with
      | Some p ->
          Alcotest.(check int) "profile agrees with stats"
            stats.Xcontainer.total p.Xc_abom.Profile.total
      | None -> Alcotest.fail "expected a profile");
      Xcontainer.shutdown ~xkernel:xk xc

let test_boot_failures () =
  let xk = fresh_xkernel () in
  (match Xcontainer.boot ~xkernel:xk (Spec.make ~name:"" ~image:"nginx:1.13" ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid spec must fail");
  (match Xcontainer.boot ~xkernel:xk (Spec.make ~name:"x" ~image:"nope:1" ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown image must fail");
  match
    Xcontainer.boot ~xkernel:xk
      (Spec.make ~memory_mb:1_000_000 ~name:"big" ~image:"nginx:1.13" ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized container must fail"

let test_shutdown_frees_memory () =
  let xk = fresh_xkernel () in
  let before = Xc_hypervisor.Xkernel.free_memory_mb xk in
  let spec = Spec.make ~name:"tmp" ~image:"redis:3.2.11" () in
  (match Xcontainer.boot ~xkernel:xk spec with
  | Ok xc ->
      Alcotest.(check int) "memory taken" (before - 128)
        (Xc_hypervisor.Xkernel.free_memory_mb xk);
      Xcontainer.shutdown ~xkernel:xk xc;
      Alcotest.(check int) "memory back" before (Xc_hypervisor.Xkernel.free_memory_mb xk)
  | Error e -> Alcotest.fail e)

let test_mysql_container_keeps_trapping () =
  (* The cancellable wrappers in the mysql image stay unpatched online. *)
  let xk = fresh_xkernel () in
  match Xcontainer.boot ~xkernel:xk (Spec.make ~name:"db" ~image:"mysql:5.7" ()) with
  | Error e -> Alcotest.fail e
  | Ok xc ->
      (match Xcontainer.exec_program ~repeat:50 xc with
      | Ok Xc_isa.Machine.Halted -> ()
      | Ok _ | Error _ -> Alcotest.fail "run failed");
      let stats = Xcontainer.syscall_stats xc in
      Alcotest.(check bool) "reduction well below 1" true
        (stats.Xcontainer.reduction < 0.8);
      Alcotest.(check bool) "but some conversion" true
        (stats.Xcontainer.reduction > 0.2)

let test_service_time () =
  let xk = fresh_xkernel () in
  match Xcontainer.boot ~xkernel:xk (Spec.make ~name:"web" ~image:"nginx:1.13" ()) with
  | Error e -> Alcotest.fail e
  | Ok xc -> begin
      let p =
        Xc_platforms.Platform.create (Xc_platforms.Config.make Xc_platforms.Config.X_container)
      in
      match Xcontainer.service_time_ns xc ~platform:p with
      | Some ns -> Alcotest.(check bool) "positive service" true (ns > 0.)
      | None -> Alcotest.fail "nginx image has a recipe"
    end

(* ---------------- Figures (smoke) ---------------- *)

let test_fig3_structure () =
  let results = Figures.fig3 Xc_platforms.Config.Amazon_ec2 Figures.Redis_app in
  Alcotest.(check int) "ten configurations" 10 (List.length results);
  let rel = Figures.relative_throughput results in
  (match List.assoc_opt "Docker" rel with
  | Some v -> Alcotest.(check (float 1e-9)) "baseline 1.0" 1.0 v
  | None -> Alcotest.fail "docker baseline");
  List.iter
    (fun r ->
      Alcotest.(check bool) "positive tput" true (r.Figures.throughput_rps > 0.))
    results

let test_boot_rows () =
  Alcotest.(check int) "four boot rows" 4 (List.length (Figures.boot_times ()))

let suites =
  [
    ( "core.spec",
      [
        Alcotest.test_case "validation" `Quick test_spec_validation;
        Alcotest.test_case "defaults" `Quick test_spec_defaults;
      ] );
    ("core.boot", [ Alcotest.test_case "times (S4.5)" `Quick test_boot_times ]);
    ( "core.docker_wrapper",
      [ Alcotest.test_case "registry/pull" `Quick test_wrapper_registry ] );
    ( "core.xcontainer",
      [
        Alcotest.test_case "boot and run" `Quick test_boot_and_run;
        Alcotest.test_case "boot failures" `Quick test_boot_failures;
        Alcotest.test_case "shutdown frees memory" `Quick test_shutdown_frees_memory;
        Alcotest.test_case "mysql keeps trapping" `Quick
          test_mysql_container_keeps_trapping;
        Alcotest.test_case "service time" `Quick test_service_time;
      ] );
    ( "core.figures",
      [
        Alcotest.test_case "fig3 structure" `Quick test_fig3_structure;
        Alcotest.test_case "boot rows" `Quick test_boot_rows;
      ] );
  ]
