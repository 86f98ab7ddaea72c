module Config = Xc_platforms.Config
module Platform = Xc_platforms.Platform

type point = {
  containers : int;
  throughput_rps : float;
  booted : bool;
  service_ns : float;
}

let host_cores = 16
let host_memory_mb = 96 * 1024
let connections_per_container = 5

(* The webdevops/php-nginx page is a real PHP application page, much
   heavier than the Figure 6 micropage; and the wrk clients sit across
   the cluster network.  These two constants position the knee of the
   curve; the platform ordering comes from the switch-cost model. *)
let page_extra_user_ns = 420_000.
let client_rtt_ns = 25e6

let base_recipe =
  let r = Php_app.fpm_request in
  { r with Recipe.user_ns = r.Recipe.user_ns +. page_extra_user_ns }

(* Per-request multiplexing overhead at scale: how many times serving one
   request makes the bottom-level scheduler switch away and back. *)
let switches_per_request = 4.

let overhead_ns platform ~containers =
  let runtime = (Platform.config platform).Config.runtime in
  match runtime with
  | Config.Docker | Config.Gvisor | Config.Graphene | Config.Clear_container ->
      (* Flat: every switch sees the global runqueue of 4N processes. *)
      switches_per_request
      *. Platform.container_switch_ns platform ~runnable:(4 * containers)
  | Config.Xen_container | Config.X_container | Config.Xen_hvm | Config.Xen_pv
  | Config.Unikernel ->
      (* Hierarchical: intra-guest switches see 4 processes; the
         hypervisor wakes the vCPU ~1.5 times per request and sees N. *)
      (switches_per_request *. Platform.process_switch_ns platform)
      +. (1.5 *. Platform.container_switch_ns platform ~runnable:containers)

(* HVM guests take VM exits for interrupt injection, APIC accesses and
   I/O completion on every request's packets. *)
let hvm_emulation_ns runtime =
  match runtime with
  | Config.Xen_hvm -> 14. *. Xc_cpu.Costs.vmexit_ns
  | _ -> 0.

(* Split-driver I/O burns Dom0/driver-domain CPU on the same 16 cores:
   netback copies and event handling, per packet, for every Xen-family
   platform.  Docker's bridge path is already inside the request's own
   kernel work. *)
let dom0_netback_ns runtime =
  match runtime with
  | Config.Xen_container | Config.X_container | Config.Xen_hvm | Config.Xen_pv
  | Config.Unikernel ->
      3. *. 5_000.
  | _ -> 0.

let run runtime ~containers =
  (* The local cluster machines predate the Meltdown patches. *)
  let config = Config.make ~cloud:Local_cluster ~meltdown_patched:false runtime in
  let platform = Platform.create config in
  let booted = containers <= Platform.max_instances platform ~host_memory_mb in
  let service =
    Recipe.service_ns platform base_recipe
    +. overhead_ns platform ~containers
    +. hvm_emulation_ns runtime
    +. dom0_netback_ns runtime
  in
  if not booted then { containers; throughput_rps = 0.; booted; service_ns = service }
  else begin
    let capacity = float_of_int host_cores *. 1e9 /. service in
    let demand =
      float_of_int (containers * connections_per_container)
      *. 1e9
      /. (client_rtt_ns +. service)
    in
    { containers; throughput_rps = Float.min capacity demand; booted; service_ns = service }
  end

let sweep runtime counts = List.map (fun n -> run runtime ~containers:n) counts

let default_counts = [ 1; 5; 10; 25; 50; 100; 150; 200; 250; 300; 350; 400 ]
