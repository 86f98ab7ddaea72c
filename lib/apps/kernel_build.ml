module K = Xc_os.Kernel
module Platform = Xc_platforms.Platform

let abom_coverage = 0.953

(* One translation unit: the make process forks, execs the compiler,
   which reads the source + headers, writes the object, and exits. *)
let compiler_cpu_ns = 48_000_000. (* ~50ms of real compilation work *)

let minor_faults_per_unit = 25_000.

let per_unit_ns platform =
  let syscall op = Platform.syscall_ns ~coverage:abom_coverage platform op in
  Platform.fork_ns platform +. Platform.exec_ns platform
  +. (400. *. syscall (K.File_read 16384)) (* source + headers *)
  +. (20. *. syscall (K.File_write 32768)) (* object + deps *)
  +. (2000. *. syscall (K.Cheap Xc_os.Syscall_nr.Getpid)) (* stat/brk churn *)
  +. (minor_faults_per_unit *. Platform.page_fault_ns platform)
  +. syscall K.Wait_op
  +. (2. *. Platform.process_switch_ns platform)
  +. compiler_cpu_ns

let build_ns ?(units = 600) ?(jobs = 8) platform =
  let per = per_unit_ns platform in
  (* make -j: perfect parallelism across jobs, plus a serial link step. *)
  let link = 10. *. per in
  (Float.of_int units /. Float.of_int jobs *. per) +. link

let relative_to_docker platform =
  let docker =
    Platform.create (Xc_platforms.Config.make Xc_platforms.Config.Docker)
  in
  build_ns docker /. build_ns platform
