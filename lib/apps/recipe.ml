type t = {
  name : string;
  user_ns : float;
  ops : Xc_os.Kernel.op list;
  request_bytes : int;
  response_bytes : int;
  process_hops : int;
  irqs : int;
  abom_coverage : float;
}

let make ~name ~user_ns ~ops ?(request_bytes = 256) ?(response_bytes = 1024)
    ?(process_hops = 0) ?(irqs = 2) ?(abom_coverage = 1.0) () =
  {
    name;
    user_ns;
    ops;
    request_bytes;
    response_bytes;
    process_hops;
    irqs;
    abom_coverage;
  }

let syscall_count t = List.length t.ops

let syscalls_ns platform t =
  List.fold_left
    (fun acc op ->
      acc +. Xc_platforms.Platform.syscall_ns ~coverage:t.abom_coverage platform op)
    0. t.ops

let cpu_only_ns platform t =
  t.user_ns +. syscalls_ns platform t
  +. (float_of_int t.process_hops
     *. Xc_platforms.Platform.process_switch_ns platform)
  +. (float_of_int t.irqs *. Xc_platforms.Platform.irq_ns platform)

let service_ns platform t =
  cpu_only_ns platform t
  +. Xc_platforms.Platform.request_net_ns platform ~request_bytes:t.request_bytes
       ~response_bytes:t.response_bytes

(* The same total as [service_ns], split by mechanism the way the
   tracer categorises spans — so a driver can re-emit a request's cost
   as synthetic child spans and tail attribution recovers exactly the
   recipe's decomposition.  Call with tracing disabled (or before
   enabling): the platform cost queries themselves emit trace spans. *)
let mechanisms platform t =
  let entry =
    Xc_platforms.Platform.syscall_entry_ns ~coverage:t.abom_coverage platform
  in
  let n = syscall_count t in
  let work = syscalls_ns platform t -. (float_of_int n *. entry) in
  let base =
    [
      ("cpu", "user", t.user_ns);
      ("syscall-entry", "entry", float_of_int n *. entry);
      ("syscall-work", "kernel", work);
    ]
  in
  let hops =
    if t.process_hops = 0 then []
    else
      [
        ( "ctx-switch", "process",
          float_of_int t.process_hops
          *. Xc_platforms.Platform.process_switch_ns platform );
      ]
  in
  let irqs =
    if t.irqs = 0 then []
    else
      [
        ( "irq", "delivery",
          float_of_int t.irqs *. Xc_platforms.Platform.irq_ns platform );
      ]
  in
  let net =
    [
      ( "net.hop", "server-stack",
        Xc_platforms.Platform.request_net_ns platform
          ~request_bytes:t.request_bytes ~response_bytes:t.response_bytes );
    ]
  in
  List.filter (fun (_, _, ns) -> ns > 0.) (base @ hops @ irqs @ net)

let server ~units ~stddev ~floor platform t =
  { Xc_platforms.Closed_loop.units; base_ns = service_ns platform t; stddev; floor }
