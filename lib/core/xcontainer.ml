module Xk = Xc_hypervisor.Xkernel

type t = {
  spec : Spec.t;
  image : Docker_wrapper.image;
  domain : Xc_hypervisor.Domain.t;
  libos : Xc_os.Kernel.t;
  patcher : Xc_abom.Patcher.t;
  boot_time : Boot.breakdown;
  machine : Xc_isa.Machine.t option;
  entry : int;
}

let boot ?(toolstack = Boot.Xl) ~xkernel spec =
  match Spec.validate spec with
  | Error e -> Error e
  | Ok spec -> begin
      match Docker_wrapper.pull spec.Spec.image with
      | Error e -> Error e
      | Ok image -> begin
          match
            Xk.create_domain xkernel ~vcpus:spec.Spec.vcpus
              ~memory_mb:spec.Spec.memory_mb
          with
          | Error e -> Error e
          | Ok domain ->
              let libos = Xc_os.Kernel.create ~config:Xc_os.Kernel.xlibos_config () in
              (* The bootloader spawns the container's processes directly,
                 without any init system (Section 4.5). *)
              let process_count =
                Stdlib.max spec.Spec.processes
                  (Docker_wrapper.bootloader_process_count image)
              in
              for _ = 1 to process_count do
                ignore (Xc_os.Kernel.spawn libos)
              done;
              let table = Xc_abom.Entry_table.create () in
              let patcher = Xc_abom.Patcher.create table in
              let machine, entry =
                match image.Docker_wrapper.entry_program with
                | Some prog ->
                    let config = Xc_abom.Patcher.machine_config patcher () in
                    ( Some
                        (Xc_isa.Machine.create ~config prog.Xc_isa.Builder.image
                           ~entry:prog.Xc_isa.Builder.entry),
                      prog.Xc_isa.Builder.entry )
                | None -> (None, 0)
              in
              Ok
                {
                  spec;
                  image;
                  domain;
                  libos;
                  patcher;
                  boot_time = Boot.xcontainer ~toolstack ();
                  machine;
                  entry;
                }
        end
    end

let shutdown ~xkernel t = Xk.destroy_domain xkernel t.domain
let domain t = t.domain
let libos t = t.libos
let boot_time t = t.boot_time
let processes t = Xc_os.Kernel.processes t.libos

let exec_program ?(repeat = 1) t =
  match t.machine with
  | None -> Error "image has no entry program"
  | Some machine ->
      let rec go i last =
        if i >= repeat then Ok last
        else begin
          Xc_isa.Machine.reset machine ~entry:t.entry;
          match Xc_isa.Machine.run machine with
          | Xc_isa.Machine.Halted -> go (i + 1) Xc_isa.Machine.Halted
          | other -> Ok other
        end
      in
      go 0 Xc_isa.Machine.Halted

type syscall_stats = {
  total : int;
  via_trap : int;
  via_function_call : int;
  reduction : float;
}

let syscall_stats t =
  match t.machine with
  | None -> { total = 0; via_trap = 0; via_function_call = 0; reduction = 0. }
  | Some machine ->
      let traps = Xc_isa.Machine.syscall_count machine `Trap in
      let fast = Xc_isa.Machine.syscall_count machine `Fast in
      let total = traps + fast in
      {
        total;
        via_trap = traps;
        via_function_call = fast;
        reduction = (if total = 0 then 0. else float_of_int fast /. float_of_int total);
      }

let profile t =
  Option.map Xc_abom.Profile.of_machine t.machine

let service_time_ns t ~platform =
  Option.map
    (fun recipe -> Xc_apps.Recipe.service_ns platform recipe)
    t.image.Docker_wrapper.recipe
