(* Quickstart: boot an X-Container from a Docker image, run its program
   under the X-Kernel (ABOM patching syscall sites on first use), and
   inspect what happened.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A host: the X-Kernel as exokernel, 4 physical cores, 16 GB. *)
  let xkernel = Xc_hypervisor.Xkernel.create ~pcpus:4 ~memory_mb:16384 () in

  (* A single-concerned container: one NGINX, 1 vCPU, 128 MB. *)
  let spec = Xcontainers.Spec.make ~name:"web" ~image:"nginx:1.13" () in
  Format.printf "booting %a@." Xcontainers.Spec.pp spec;

  match Xcontainers.Xcontainer.boot ~xkernel spec with
  | Error e ->
      prerr_endline ("boot failed: " ^ e);
      exit 1
  | Ok xc ->
      Format.printf "boot time: %a@." Xcontainers.Boot.pp
        (Xcontainers.Xcontainer.boot_time xc);
      Format.printf "processes spawned by the bootloader: %d@."
        (Xcontainers.Xcontainer.processes xc);

      (* Serve 1000 "requests": each run of the program issues the
         image's syscalls.  The first pass traps into the X-Kernel and
         ABOM rewrites each site; every later pass uses function calls. *)
      (match Xcontainers.Xcontainer.exec_program ~repeat:1000 xc with
      | Ok Xc_isa.Machine.Halted -> ()
      | Ok _ -> prerr_endline "program did not halt cleanly"
      | Error e -> prerr_endline e);

      let stats = Xcontainers.Xcontainer.syscall_stats xc in
      Format.printf
        "syscalls: %d total, %d trapped, %d as function calls (%.2f%% converted)@."
        stats.total stats.via_trap stats.via_function_call
        (100. *. stats.reduction);

      (* What a request would cost on this platform vs native Docker. *)
      let xc_platform =
        Xc_platforms.Platform.create
          (Xc_platforms.Config.make Xc_platforms.Config.X_container)
      in
      let docker_platform =
        Xc_platforms.Platform.create
          (Xc_platforms.Config.make Xc_platforms.Config.Docker)
      in
      (match
         ( Xcontainers.Xcontainer.service_time_ns xc ~platform:xc_platform,
           Xcontainers.Xcontainer.service_time_ns xc ~platform:docker_platform )
       with
      | Some on_xc, Some on_docker ->
          Format.printf
            "per-request service time: %.1fus on X-Container vs %.1fus on Docker (%.2fx)@."
            (on_xc /. 1e3) (on_docker /. 1e3) (on_docker /. on_xc)
      | _ -> ());

      Xcontainers.Xcontainer.shutdown ~xkernel xc;
      Format.printf "shut down; host free memory: %d MB@."
        (Xc_hypervisor.Xkernel.free_memory_mb xkernel)
