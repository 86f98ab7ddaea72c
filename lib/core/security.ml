module Config = Xc_platforms.Config

type boundary =
  | Host_kernel
  | Userspace_kernel
  | Hypervisor_hvm
  | Hypervisor_pv
  | None_process

let boundary_name = function
  | Host_kernel -> "shared host kernel"
  | Userspace_kernel -> "user-space kernel"
  | Hypervisor_hvm -> "hypervisor (HVM)"
  | Hypervisor_pv -> "hypervisor (PV)"
  | None_process -> "process only"

type profile = {
  runtime : Config.runtime;
  boundary : boundary;
  tcb_kloc : int;
  attack_surface : int;
  needs_guest_meltdown_patch : bool;
}

let linux_kloc = Xc_hypervisor.Xkernel.linux_host_tcb_kloc
let linux_syscalls = Xc_hypervisor.Xkernel.linux_host_syscall_surface
let xen_kloc = 280
let hypercalls = Xc_hypervisor.Hypercall.surface_size ()

let profile_of runtime =
  match runtime with
  | Config.Docker ->
      {
        runtime;
        boundary = Host_kernel;
        tcb_kloc = linux_kloc;
        attack_surface = linux_syscalls;
        needs_guest_meltdown_patch = true;
      }
  | Config.Gvisor ->
      (* The Sentry is ~200 kLoC of Go, but ~70 host syscalls remain
         reachable through its seccomp filter. *)
      {
        runtime;
        boundary = Userspace_kernel;
        tcb_kloc = 200 + linux_kloc;
        attack_surface = 70;
        needs_guest_meltdown_patch = true;
      }
  | Config.Clear_container | Config.Xen_hvm ->
      {
        runtime;
        boundary = Hypervisor_hvm;
        tcb_kloc = 1200 (* KVM+QEMU or Xen+emulation *);
        attack_surface = 40 (* virtio + emulated devices *);
        needs_guest_meltdown_patch = false;
      }
  | Config.Xen_container | Config.Xen_pv ->
      {
        runtime;
        boundary = Hypervisor_pv;
        tcb_kloc = xen_kloc;
        attack_surface = hypercalls;
        needs_guest_meltdown_patch = true (* guest kernel still isolates *);
      }
  | Config.X_container ->
      {
        runtime;
        boundary = Hypervisor_pv;
        tcb_kloc = xen_kloc;
        attack_surface = hypercalls;
        needs_guest_meltdown_patch = false (* no guest kernel isolation left *);
      }
  | Config.Unikernel ->
      {
        runtime;
        boundary = Hypervisor_pv;
        tcb_kloc = 270;
        attack_surface = hypercalls;
        needs_guest_meltdown_patch = false;
      }
  | Config.Graphene ->
      {
        runtime;
        boundary = None_process;
        tcb_kloc = linux_kloc;
        attack_surface = linux_syscalls;
        needs_guest_meltdown_patch = true;
      }

let all =
  List.map profile_of
    [
      Config.Docker;
      Config.Gvisor;
      Config.Clear_container;
      Config.Xen_container;
      Config.X_container;
      Config.Unikernel;
      Config.Graphene;
    ]

let vulnerability_exposure p =
  let docker = profile_of Config.Docker in
  float_of_int (p.tcb_kloc * p.attack_surface)
  /. float_of_int (docker.tcb_kloc * docker.attack_surface)
