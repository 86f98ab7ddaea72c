type toolstack = Xl | Lightvm

type breakdown = {
  toolstack_ns : float;
  kernel_boot_ns : float;
  bootloader_ns : float;
  total_ns : float;
}

let ms = 1e6

let make ~toolstack_ns ~kernel_boot_ns ~bootloader_ns =
  {
    toolstack_ns;
    kernel_boot_ns;
    bootloader_ns;
    total_ns = toolstack_ns +. kernel_boot_ns +. bootloader_ns;
  }

let xcontainer ?(toolstack = Xl) () =
  let toolstack_ns =
    match toolstack with
    | Xl -> 2820. *. ms (* 3s total minus the 180ms kernel (Section 4.5) *)
    | Lightvm -> 4. *. ms
  in
  make ~toolstack_ns ~kernel_boot_ns:(170. *. ms) ~bootloader_ns:(10. *. ms)

let docker () =
  (* containerd setup + namespace/cgroup creation + process start. *)
  make ~toolstack_ns:(350. *. ms) ~kernel_boot_ns:0. ~bootloader_ns:(50. *. ms)

let xen_vm () =
  (* Full guest: xl + kernel + initrd + systemd reaching the service. *)
  make ~toolstack_ns:(2820. *. ms) ~kernel_boot_ns:(1200. *. ms)
    ~bootloader_ns:(8000. *. ms)

(* Where the xl toolstack's ~2.8s goes: serialised XenStore traffic.
   Build the actual domain record and run the three device handshakes,
   count operations, and price each at the xl-era cost (a transaction
   against xenstored plus hotplug script forks). *)
let xenstore_op_cost_ns = 9.0e6

let xl_toolstack_estimate_ns () =
  let xs = Xc_hypervisor.Xenstore.create () in
  let domid = 7 in
  (* Domain introduction: the config keys xl writes. *)
  List.iter
    (fun (k, v) ->
      Xc_hypervisor.Xenstore.write xs
        ~path:(Printf.sprintf "/local/domain/%d/%s" domid k)
        v)
    [
      ("name", "xc-guest");
      ("memory/target", "131072");
      ("vm", "uuid");
      ("cpu/0/availability", "online");
      ("control/platform-feature-multiprocessor-suspend", "1");
      ("console/limit", "1048576");
      ("image/ostype", "linux");
      ("image/kernel", "/var/lib/xen/boot_kernel");
      ("image/cmdline", "root=/dev/xvda1");
    ];
  (* Device handshakes: network, block, console. *)
  List.iter
    (fun device ->
      ignore (Xc_hypervisor.Xenstore.device_handshake xs ~domid ~device))
    [ "vif"; "vbd"; "console" ];
  (* Each device also runs a hotplug script: shell forks, udev settles,
     bridge attach — the slowest part of the 2013-era toolstack. *)
  let hotplug = 3.0 *. 550.0e6 in
  (* Domain-management hypercalls and the xl process itself add a fixed
     share on top of the store traffic. *)
  let fixed = 600.0e6 in
  (float_of_int (Xc_hypervisor.Xenstore.op_count xs) *. xenstore_op_cost_ns)
  +. hotplug +. fixed

let pp fmt b =
  Format.fprintf fmt "toolstack %.0fms + kernel %.0fms + bootstrap %.0fms = %.0fms"
    (b.toolstack_ns /. ms) (b.kernel_boot_ns /. ms) (b.bootloader_ns /. ms)
    (b.total_ns /. ms)
