type t = {
  total_memory_mb : int;
  mutable used_memory_mb : int;
  mutable domains : Domain.t list;
  dom0 : Domain.t;
}

let dom0_memory_mb = 1024

let create ~pcpus ~memory_mb () =
  if memory_mb <= dom0_memory_mb then
    invalid_arg "Xkernel.create: not enough memory for Dom0";
  let dom0 = Domain.create ~kind:Dom0 ~vcpus:pcpus ~memory_mb:dom0_memory_mb in
  Domain.set_state dom0 Running;
  {
    total_memory_mb = memory_mb;
    used_memory_mb = dom0_memory_mb;
    domains = [ dom0 ];
    dom0;
  }

let free_memory_mb t = t.total_memory_mb - t.used_memory_mb
let dom0 t = t.dom0

let create_domain t ~vcpus ~memory_mb =
  if memory_mb > free_memory_mb t then
    Error
      (Printf.sprintf "out of memory: need %dMB, %dMB free" memory_mb
         (free_memory_mb t))
  else begin
    let d = Domain.create ~kind:Domu ~vcpus ~memory_mb in
    t.used_memory_mb <- t.used_memory_mb + memory_mb;
    t.domains <- t.domains @ [ d ];
    Domain.set_state d Running;
    Ok d
  end

let destroy_domain t d =
  if Domain.kind d = Dom0 then invalid_arg "cannot destroy Dom0";
  if List.memq d t.domains then begin
    t.domains <- List.filter (fun x -> x != d) t.domains;
    t.used_memory_mb <- t.used_memory_mb - Domain.memory_mb d;
    Domain.set_state d Shutdown
  end

(* A Linux host kernel is ~17 MLoC with ~350 syscalls. *)
let linux_host_tcb_kloc = 17_000
let linux_host_syscall_surface = 350
