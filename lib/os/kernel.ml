module Costs = Xc_cpu.Costs

type config = { smp : bool; kernel_global : bool; pv_mmu : bool }

let default_config = { smp = true; kernel_global = false; pv_mmu = false }
let xlibos_config = { smp = true; kernel_global = true; pv_mmu = true }

type t = {
  config : config;
  vfs : Vfs.t;
  scheduler : Cfs.t;
  mutable procs : Process.t list;
  kernel_pages : int;
}

let create ?(config = default_config) () =
  {
    config;
    vfs = Vfs.create ();
    scheduler = Cfs.create ();
    procs = [];
    kernel_pages = 2048; (* 8 MB of resident kernel text/data *)
  }

let config t = t.config
let vfs t = t.vfs
let processes t = t.procs

let fresh_aspace t =
  let aspace = Xc_mem.Address_space.create () in
  Xc_mem.Address_space.map_kernel aspace ~global:t.config.kernel_global
    ~vpn:Xc_mem.Address_space.kernel_base_vpn ~pages:t.kernel_pages ~first_pfn:0;
  Xc_mem.Address_space.map_user aspace ~vpn:0x1000 ~pages:Costs.process_pages
    ~first_pfn:0x10000;
  aspace

(* PV guests pay hypervisor validation for every page-table entry they
   install, in mmu_update batches. *)
let pv_build_cost ~pages =
  let batches = (pages + Costs.pv_mmu_batch_entries - 1) / Costs.pv_mmu_batch_entries in
  (float_of_int batches *. (Costs.hypercall_ns +. Costs.pv_mmu_update_ns))
  +. (float_of_int pages *. Costs.pv_validation_per_entry_ns)

let fork_cost_ns t ~pages =
  let direct = Costs.fork_base_ns +. (float_of_int pages *. Costs.fork_per_page_ns) in
  if t.config.pv_mmu then direct +. pv_build_cost ~pages else direct

let exec_cost_ns t =
  let pages = Costs.process_pages in
  if t.config.pv_mmu then Costs.exec_base_ns +. pv_build_cost ~pages
  else Costs.exec_base_ns

let spawn t =
  let p = Process.create ~aspace:(fresh_aspace t) in
  t.procs <- t.procs @ [ p ];
  Cfs.add t.scheduler p;
  p

type op =
  | Cheap of Syscall_nr.t
  | File_read of int
  | File_write of int
  | Pipe_read of int
  | Pipe_write of int
  | Socket_send of int
  | Socket_recv of int
  | Epoll
  | Accept_op
  | Open_op
  | Stat_op
  | Fork_op
  | Exec_op
  | Wait_op

let op_name = function
  | Cheap nr -> Syscall_nr.name nr
  | File_read _ -> "read"
  | File_write _ -> "write"
  | Pipe_read _ -> "pipe-read"
  | Pipe_write _ -> "pipe-write"
  | Socket_send _ -> "send"
  | Socket_recv _ -> "recv"
  | Epoll -> "epoll_wait"
  | Accept_op -> "accept4"
  | Open_op -> "open"
  | Stat_op -> "stat"
  | Fork_op -> "fork"
  | Exec_op -> "execve"
  | Wait_op -> "wait4"

(* Lock traffic and TLB-shootdown IPIs only exist with SMP enabled. *)
let smp_tax t = if t.config.smp then 30. else 0.

let syscall_work_ns t op =
  let ns =
    match op with
    | Cheap _ -> Costs.cheap_syscall_work_ns
    | File_read n | File_write n -> Vfs.copy_cost_ns ~bytes_len:n +. smp_tax t
    | Pipe_read n | Pipe_write n ->
        Pipe.transfer_cost_ns ~bytes_len:n +. smp_tax t
    | Socket_send n | Socket_recv n ->
        350. +. (0.05 *. float_of_int n) +. smp_tax t
    | Epoll -> 180. +. smp_tax t
    | Accept_op -> 420. +. smp_tax t
    | Open_op -> 260. +. smp_tax t
    | Stat_op -> 180. +. smp_tax t
    | Fork_op -> fork_cost_ns t ~pages:Costs.process_pages
    | Exec_op -> exec_cost_ns t
    | Wait_op -> 150.
  in
  Xc_sim.Metrics.counter_incr ~cat:"os" ~name:"syscalls";
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.span ~cat:"syscall-work" ~name:(op_name op) ns;
  ns

let context_switch_cost_ns t =
  let runnable = Cfs.runnable_count t.scheduler in
  if Xc_sim.Metrics.on () then begin
    Xc_sim.Metrics.counter_incr ~cat:"os" ~name:"ctx-switches";
    Xc_sim.Metrics.gauge_set ~cat:"os" ~name:"runqueue" (float_of_int runnable)
  end;
  let base =
    Costs.context_switch_base_ns
    +. (Costs.runqueue_ns_per_task *. float_of_int runnable)
    +. Costs.cr3_switch_ns +. Costs.tlb_refill_user_ns
  in
  let ns =
    if t.config.kernel_global then base
    else base +. Costs.tlb_refill_kernel_ns
  in
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.span ~cat:"ctx-switch" ~name:"process" ns;
  ns
