module Builder = Xc_isa.Builder
module Machine = Xc_isa.Machine

type profile = {
  name : string;
  implementation : string;
  benchmark : string;
  sites : (Builder.style * int * float) list;
  paper_reduction : float;
  paper_manual_reduction : float option;
}

(* Helpers to lay out site lists.  Syscall numbers are real x86-64 ones,
   cycling over a plausible working set per app. *)
let spread style weight sysnos =
  let w = weight /. float_of_int (List.length sysnos) in
  List.map (fun nr -> (style, nr, w)) sysnos

let rw = [ 0; 1 ] (* read, write *)
let net = [ 45; 44; 232; 233 ] (* recvfrom, sendto, epoll_wait, epoll_ctl *)
let file = [ 2; 3; 5; 8 ] (* open, close, fstat, lseek *)
let misc = [ 39; 102; 95; 32 ] (* getpid, getuid, umask, dup *)

let c_app ?(wide = 0.3) weight_patchable =
  (* A C application: glibc wrappers, some compiled to the 7-byte form,
     some to the 9-byte form. *)
  spread Builder.Glibc_small (weight_patchable *. (1. -. wide)) (rw @ net)
  @ spread Builder.Glibc_wide (weight_patchable *. wide) (file @ misc)

let go_app weight_patchable =
  spread Builder.Go_stack weight_patchable (rw @ net @ file)

let unpatchable weight = spread Builder.Exotic weight [ 0; 1 ]

let all =
  [
    {
      name = "memcached";
      implementation = "C/C++";
      benchmark = "memtier_benchmark";
      sites = c_app 1.0;
      paper_reduction = 1.00;
      paper_manual_reduction = None;
    };
    {
      name = "Redis";
      implementation = "C/C++";
      benchmark = "redis-benchmark";
      sites = c_app 1.0;
      paper_reduction = 1.00;
      paper_manual_reduction = None;
    };
    {
      name = "etcd";
      implementation = "Go";
      benchmark = "etcd-benchmark";
      sites = go_app 1.0;
      paper_reduction = 1.00;
      paper_manual_reduction = None;
    };
    {
      name = "MongoDB";
      implementation = "C/C++";
      benchmark = "YCSB";
      sites = c_app 1.0;
      paper_reduction = 1.00;
      paper_manual_reduction = None;
    };
    {
      name = "InfluxDB";
      implementation = "Go";
      benchmark = "influxdb-comparisons";
      sites = go_app 1.0;
      paper_reduction = 1.00;
      paper_manual_reduction = None;
    };
    {
      name = "Postgres";
      implementation = "C/C++";
      benchmark = "pgbench";
      sites = c_app 0.998 @ unpatchable 0.002;
      paper_reduction = 0.998;
      paper_manual_reduction = None;
    };
    {
      name = "Fluentd";
      implementation = "Ruby";
      benchmark = "fluentd-benchmark";
      sites = c_app 0.994 @ unpatchable 0.006;
      paper_reduction = 0.994;
      paper_manual_reduction = None;
    };
    {
      name = "Elasticsearch";
      implementation = "JAVA";
      benchmark = "elasticsearch-stress-test";
      sites = c_app 0.988 @ unpatchable 0.012;
      paper_reduction = 0.988;
      paper_manual_reduction = None;
    };
    {
      name = "RabbitMQ";
      implementation = "Erlang";
      benchmark = "rabbitmq-perf-test";
      sites = c_app 0.986 @ unpatchable 0.014;
      paper_reduction = 0.986;
      paper_manual_reduction = None;
    };
    {
      name = "Kernel Compilation";
      implementation = "Various tools";
      benchmark = "Linux kernel with tiny config";
      sites = c_app 0.953 @ unpatchable 0.047;
      paper_reduction = 0.953;
      paper_manual_reduction = None;
    };
    {
      name = "Nginx";
      implementation = "C/C++";
      benchmark = "Apache ab";
      sites = c_app 0.923 @ unpatchable 0.077;
      paper_reduction = 0.923;
      paper_manual_reduction = None;
    };
    {
      name = "MySQL";
      implementation = "C/C++";
      benchmark = "sysbench";
      sites =
        (* Hot path through libpthread's two cancellable wrappers (read
           and write): 47.6% of dynamic syscalls, recoverable offline;
           7.8% through shapes no tool handles; the rest plain glibc. *)
        c_app 0.446
        @ spread Builder.Cancellable 0.476 rw
        @ unpatchable 0.078;
      paper_reduction = 0.446;
      paper_manual_reduction = Some 0.922;
    };
  ]

let find name =
  List.find_opt (fun p -> String.lowercase_ascii p.name = String.lowercase_ascii name) all

type measurement = {
  profile : profile;
  invocations : int;
  auto_reduction : float;
  manual_reduction : float;
  sites_patched : int;
  cmpxchg_ops : int;
}

(* Draw a site index by weight.  Top-level and monomorphic, so the
   search neither allocates a closure nor boxes the weights it reads. *)
let rec first_at_least (cumulative : float array) x i =
  if i >= Array.length cumulative - 1 || cumulative.(i) >= x then i
  else first_at_least cumulative x (i + 1)

let pick_site rng cumulative = first_at_least cumulative (Xc_sim.Prng.float rng 1.0) 0

let run_workload ~invocations ~seed ~offline profile =
  let wrappers = List.map (fun (style, nr, _) -> (style, nr)) profile.sites in
  let prog = Builder.build wrappers in
  let table = Xc_abom.Entry_table.create () in
  let patcher = Xc_abom.Patcher.create table in
  if offline then
    ignore (Xc_abom.Offline_tool.patch_image ~aggressive:true patcher prog.image);
  let config = Xc_abom.Patcher.machine_config patcher () in
  let machine = Machine.create ~config prog.image ~entry:prog.entry in
  let weights = List.map (fun (_, _, w) -> w) profile.sites in
  let total_w = List.fold_left ( +. ) 0. weights in
  let cumulative =
    let acc = ref 0. in
    Array.of_list (List.map (fun w -> acc := !acc +. (w /. total_w); !acc) weights)
  in
  let site_offs = Array.of_list (List.map (fun s -> s.Builder.wrapper_off) prog.sites) in
  let rng = Xc_sim.Prng.create seed in
  for _ = 1 to invocations do
    let i = pick_site rng cumulative in
    Machine.reset machine ~entry:site_offs.(i);
    match Machine.run ~fuel:1000 machine with
    | Machine.Halted -> ()
    | Fuel_exhausted -> failwith "profile workload: fuel exhausted"
    | Fault msg -> failwith ("profile workload fault: " ^ msg)
  done;
  let fast = Machine.syscall_count machine `Fast in
  let total = fast + Machine.syscall_count machine `Trap in
  let reduction = if total = 0 then 0. else float_of_int fast /. float_of_int total in
  (reduction, patcher)

let measure ?(invocations = 50_000) ?(seed = 7) profile =
  let auto_reduction, patcher = run_workload ~invocations ~seed ~offline:false profile in
  let manual_reduction, _ = run_workload ~invocations ~seed ~offline:true profile in
  {
    profile;
    invocations;
    auto_reduction;
    manual_reduction;
    sites_patched = Xc_abom.Patcher.patched_sites patcher;
    cmpxchg_ops = Xc_abom.Patcher.cmpxchg_ops patcher;
  }
