(** X-Containers: the public umbrella.

    A reproduction of "X-Containers: Breaking Down Barriers to Improve
    Performance and Isolation of Cloud-Native Containers" (Shen et al.,
    ASPLOS 2019) as a deterministic architectural simulation.

    Quickstart:
    {[
      let xk = Xc_hypervisor.Xkernel.create ~pcpus:4 ~memory_mb:16384 () in
      let spec = Xcontainers.Spec.make ~name:"web" ~image:"nginx:1.13" () in
      match Xcontainers.Xcontainer.boot ~xkernel:xk spec with
      | Ok xc ->
          ignore (Xcontainers.Xcontainer.exec_program ~repeat:100 xc);
          let s = Xcontainers.Xcontainer.syscall_stats xc in
          Format.printf "ABOM converted %.1f%% of syscalls@." (100. *. s.reduction)
      | Error e -> prerr_endline e
    ]}

    The substrate libraries are re-exported here for convenience. *)

module Spec = Spec
module Boot = Boot
module Docker_wrapper = Docker_wrapper
module Xcontainer = Xcontainer
module Figures = Figures
module Security = Security
module Cloning = Cloning
module Inventory = Inventory

(* Substrates. *)
module Sim = Xc_sim
module Isa = Xc_isa
module Abom = Xc_abom
module Cpu = Xc_cpu
module Os = Xc_os
module Net = Xc_net
module Hypervisor = Xc_hypervisor
module Platforms = Xc_platforms
module Apps = Xc_apps
