module Costs = Xc_cpu.Costs
module Kernel = Xc_os.Kernel
module Netpath = Xc_net.Netpath

type t = { config : Config.t; kernel : Kernel.t }

let kernel_config (c : Config.t) : Kernel.config =
  match c.runtime with
  | Docker | Gvisor | Graphene ->
      (* Host Linux: global kernel mappings unless KPTI split them. *)
      { smp = true; kernel_global = not c.meltdown_patched; pv_mmu = false }
  | Xen_hvm ->
      { smp = true; kernel_global = not c.meltdown_patched; pv_mmu = false }
  | Clear_container ->
      (* Minimal guest kernel, never patched. *)
      { smp = true; kernel_global = true; pv_mmu = false }
  | Xen_container | Xen_pv ->
      (* Stock PV guest: global bit forbidden (Section 4.3). *)
      { smp = true; kernel_global = false; pv_mmu = true }
  | X_container -> Kernel.xlibos_config
  | Unikernel -> { smp = false; kernel_global = true; pv_mmu = true }

let needs_hypervisor (c : Config.t) =
  match c.runtime with
  | Xen_container | X_container | Xen_hvm | Xen_pv | Unikernel -> true
  | Docker | Gvisor | Clear_container | Graphene -> false

(* Whether containers on this runtime are scheduled as vCPUs under the
   hypervisor's credit scheduler (a two-level hierarchy) rather than as
   host processes on one flat runqueue — decides which Cluster_sim mode
   models it. *)
let hierarchical_scheduling t = needs_hypervisor t.config

let create (config : Config.t) =
  { config; kernel = Kernel.create ~config:(kernel_config config) () }

let config t = t.config

let syscall_entry_ns ?(coverage = 1.0) t =
  Syscall_path.effective_entry_ns t.config ~abom_coverage:coverage

(* Rumprun's NetBSD-derived kernel paths measured slower than Linux's for
   the paper's workloads (the Section 5.5 explanation of Figure 6c). *)
let work_multiplier t =
  match t.config.Config.runtime with Config.Unikernel -> 1.45 | _ -> 1.0

let syscall_ns ?(coverage = 1.0) t op =
  syscall_entry_ns ~coverage t
  +. (work_multiplier t *. Kernel.syscall_work_ns t.kernel op)

let process_switch_ns t =
  let base = Kernel.context_switch_cost_ns t.kernel in
  match t.config.runtime with
  | Gvisor ->
      (* The Sentry intermediates: the switch costs a ptrace round trip
         on top of the host switch. *)
      base +. Costs.gvisor_syscall_ns
  | Docker | Xen_hvm | Graphene ->
      base +. if t.config.meltdown_patched then 2. *. Costs.kpti_transition_ns else 0.
  | Clear_container -> base
  | Xen_container | Xen_pv ->
      (* PV page-table installs go through the hypervisor. *)
      base +. Costs.pv_context_switch_extra_ns
  | X_container ->
      (* Same hypervisor-mediated page-table switch; the global bit
         already removed the kernel-refill term inside [base], but the
         base-pointer switch and validation still trap (Section 5.4). *)
      base +. Costs.pv_context_switch_extra_ns
  | Unikernel -> base

(* Once the runnable set at one scheduling level outgrows the LLC, every
   switch pays a partial cache refill, ramping up to the full penalty. *)
let llc_pressure_ns ~runnable =
  let lo = float_of_int Costs.llc_pressure_threshold_tasks
  and hi = float_of_int Costs.llc_pressure_full_tasks in
  let x = (float_of_int runnable -. lo) /. (hi -. lo) in
  Costs.llc_refill_penalty_ns *. Float.max 0. (Float.min 1. x)

let container_switch_ns t ~runnable =
  match t.config.runtime with
  | Docker | Gvisor | Graphene | Clear_container ->
      (* Flat: a container switch is a host process switch with a cold
         TLB and a runqueue of every containerised process. *)
      Kernel.context_switch_cost_ns t.kernel
      +. (Costs.runqueue_ns_per_task *. float_of_int runnable)
      +. llc_pressure_ns ~runnable
      +. Costs.tlb_refill_kernel_ns
  | Xen_container | X_container | Xen_hvm | Xen_pv | Unikernel ->
      (* Hypervisor vCPU switch: full TLB flush (global or not, other
         domains' mappings must go), plus credit-scheduler bookkeeping. *)
      Xc_hypervisor.Credit_scheduler.switch_cost_ns ~runnable_vcpus:runnable
      +. Costs.tlb_refill_user_ns +. Costs.tlb_refill_kernel_ns
      +. Costs.cr3_switch_ns

(* Minor page faults: compilation-class workloads take tens of
   thousands per process.  Docker pays the trap (+KPTI when patched);
   X-Containers bounce through the X-Kernel into X-LibOS without an
   address-space switch but install PTEs through validated batches;
   gVisor handles every fault in the Sentry. *)
let page_fault_ns t =
  match t.config.runtime with
  | Docker | Graphene | Xen_hvm ->
      1_000. +. if t.config.meltdown_patched then 2. *. Costs.kpti_transition_ns else 0.
  | Gvisor -> 9_000.
  | Clear_container -> 1_250.
  | Xen_container | Xen_pv -> 1_700.
  | X_container | Unikernel ->
      1_000. +. Costs.xc_forwarded_syscall_ns
      +. (4. *. Costs.pv_validation_per_entry_ns)

let fork_ns t = Kernel.fork_cost_ns t.kernel ~pages:Costs.process_pages
let exec_ns t = Kernel.exec_cost_ns t.kernel

(* Interrupt delivery per request-triggering packet.  GCE's virtio-net
   interrupt path is markedly slower than EC2's SR-IOV enhanced networking
   for platforms that take interrupts through the cloud VM's kernel;
   Xen-Blanket platforms re-deliver through their own event channels and
   feel the difference less.  (Calibration knob for the Figure 3 cloud
   split; see DESIGN.md section 4.) *)
let irq_ns t =
  let base = Syscall_path.interrupt_ns t.config in
  let factor =
    match (t.config.cloud, t.config.runtime) with
    | Config.Google_gce, (Docker | Gvisor | Clear_container | Graphene) -> 2.6
    | Config.Google_gce, _ -> 1.15
    | (Config.Amazon_ec2 | Config.Local_cluster), _ -> 1.0
  in
  base *. factor

let net_hops t : Netpath.hop list =
  match t.config.runtime with
  | Docker -> [ Native_stack; Iptables_forward ]
  | Graphene -> [ Native_stack ]
  | Gvisor -> [ Gvisor_netstack; Native_stack; Iptables_forward ]
  | Clear_container -> [ Native_stack; Nested_exit; Native_stack; Iptables_forward ]
  | Xen_container | X_container | Xen_hvm | Xen_pv ->
      [ Native_stack; Split_driver; Iptables_forward ]
  | Unikernel -> [ Native_stack; Split_driver ]

let request_net_ns t ~request_bytes ~response_bytes =
  (* GRO/ring batching: the stacks handle bulk messages in aggregated
     units, not per wire MSS — one traversal per ~6 coalesced segments. *)
  let hops = net_hops t in
  Netpath.message_cost_ns hops ~bytes_len:request_bytes ~mss:9000
  +. Netpath.message_cost_ns hops ~bytes_len:response_bytes ~mss:9000

(* Bulk TCP moves TSO-sized chunks: one write(2) hands the stack ~64KB
   and the NIC segments it.  What differs per platform is how often the
   chunk leaves the fast path: gVisor's netstack handles every MSS in
   user space; nested virtualization exits per mapped page; Xen's
   netfront issues a grant op per page. *)
let iperf_chunk_bytes = 65536

let iperf_per_chunk_cpu_ns t =
  let chunk = float_of_int iperf_chunk_bytes in
  let copy = 0.03 *. chunk in
  let base = Costs.netdev_xmit_ns +. copy +. syscall_entry_ns t in
  match t.config.runtime with
  | Docker | Graphene | Xen_hvm -> base +. Costs.bridge_hop_ns
  | Gvisor ->
      (* No TSO through the Sentry: per-MSS netstack processing. *)
      base +. (chunk /. 1448. *. Costs.gvisor_net_ns)
  | Clear_container ->
      (* A nested VM exit per mapped guest page. *)
      base +. Costs.bridge_hop_ns
      +. (chunk /. 4096. *. Costs.nested_vmexit_ns)
  | Xen_container | X_container | Xen_pv | Unikernel ->
      (* One grant-table op per page plus the ring crossing. *)
      base +. Costs.split_driver_hop_ns +. Costs.bridge_hop_ns
      +. (chunk /. 4096. *. 450.)

let container_memory_mb t =
  match t.config.runtime with
  | Docker | Gvisor | Graphene -> 40 (* share the host kernel *)
  | Clear_container -> 192
  | X_container -> 128 (* Section 5.6 *)
  | Xen_container -> 128
  | Xen_hvm -> 512 (* recommended minimum for the Ubuntu guest *)
  | Xen_pv -> 512
  | Unikernel -> 64

let max_instances t ~host_memory_mb =
  match t.config.runtime with
  | Xen_hvm ->
      (* Section 5.6: HVM could not boot beyond 200 instances even after
         shrinking VMs to 256MB. *)
      Stdlib.min 200 (host_memory_mb / 256)
  | Xen_pv -> Stdlib.min 250 (host_memory_mb / 256)
  | _ -> host_memory_mb / container_memory_mb t
