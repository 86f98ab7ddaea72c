module K = Xc_os.Kernel
module P = Xc_platforms.Platform

type test =
  | Syscall_rate
  | Execl
  | File_copy
  | Pipe_throughput
  | Context_switching
  | Process_creation
  | Iperf

let test_name = function
  | Syscall_rate -> "System Call"
  | Execl -> "Execl"
  | File_copy -> "File Copy"
  | Pipe_throughput -> "Pipe Throughput"
  | Context_switching -> "Context Switching"
  | Process_creation -> "Process Creation"
  | Iperf -> "iperf Throughput"

let all_micro =
  [ Execl; File_copy; Pipe_throughput; Context_switching; Process_creation ]

(* The microbenchmark binaries are tiny, glibc-wrapped programs: ABOM
   reaches full coverage after the first iteration. *)
let coverage = 1.0

let per_iteration_ns platform test =
  let syscall op = P.syscall_ns ~coverage platform op in
  match test with
  | Syscall_rate ->
      (* dup, close, getpid, getuid, umask + loop body *)
      syscall (K.Cheap Dup) +. syscall (K.Cheap Close)
      +. syscall (K.Cheap Getpid)
      +. syscall (K.Cheap Getuid)
      +. syscall (K.Cheap Umask)
      +. 8.
  | Execl ->
      (* execl overlays the image: one heavyweight syscall plus loader
         user work re-running _start and relocations. *)
      syscall K.Exec_op +. 55_000.
  | File_copy ->
      (* 1KB buffer: one read + one write per iteration. *)
      syscall (K.File_read 1024) +. syscall (K.File_write 1024) +. 30.
  | Pipe_throughput -> syscall (K.Pipe_write 512) +. syscall (K.Pipe_read 512) +. 20.
  | Context_switching ->
      (* Each side reads and writes; two process switches per token pass. *)
      syscall (K.Pipe_write 4) +. syscall (K.Pipe_read 4)
      +. (2. *. P.process_switch_ns platform)
  | Process_creation ->
      syscall K.Fork_op +. syscall (K.Cheap Close) (* child exit path *)
      +. syscall K.Wait_op
      +. (2. *. P.process_switch_ns platform)
      +. 14_000. (* user-space fork bookkeeping (atfork handlers, libc) *)
  | Iperf -> 0. (* handled in [rate] *)

let rate platform test =
  match test with
  | Iperf ->
      let r =
        Xc_net.Tcp_model.steady_throughput
          ~per_packet_cpu_ns:(P.iperf_per_chunk_cpu_ns platform)
          ~mss:P.iperf_chunk_bytes ~link:Xc_net.Link.ten_gbe ()
      in
      r.throughput_gbps *. 1e9
  | _ -> 1e9 /. per_iteration_ns platform test

(* Contention factor per extra concurrent copy: platforms that share one
   kernel serialise on locks and KPTI-heavy IPIs; per-container kernels
   only share the hypervisor. *)
let contention_factor platform =
  match (P.config platform).Xc_platforms.Config.runtime with
  | Docker | Graphene -> 0.94
  | Gvisor -> 0.90
  | Clear_container | Xen_hvm | Xen_pv -> 0.97
  | Xen_container | X_container | Unikernel -> 0.975

let concurrent_rate platform ~copies test =
  if copies <= 0 then 0.
  else begin
    let f = contention_factor platform in
    let single = rate platform test in
    (* Aggregate = copies * single * f^(copies-1), saturating: the four
       copies of the paper fit in the instance's cores. *)
    single *. float_of_int copies *. Float.pow f (float_of_int (copies - 1))
  end
