(* Tests for the guest-kernel model: syscall table, VFS, the runqueue,
   and the kernel facade's processes and cost knobs. *)

open Xc_os

(* ---------------- Syscall numbers ---------------- *)

let test_syscall_numbers_authentic () =
  (* Match the real x86-64 table: these exact immediates end up inside
     the synthetic binaries ABOM patches. *)
  let expect = [ (Syscall_nr.Read, 0); (Write, 1); (Close, 3); (Dup, 32);
                 (Getpid, 39); (Fork, 57); (Execve, 59); (Umask, 95);
                 (Getuid, 102); (Epoll_wait, 232); (Accept4, 288) ]
  in
  List.iter
    (fun (s, n) -> Alcotest.(check int) (Syscall_nr.name s) n (Syscall_nr.number s))
    expect

let test_syscall_roundtrip () =
  List.iter
    (fun s ->
      match Syscall_nr.of_number (Syscall_nr.number s) with
      | Some s' -> Alcotest.(check string) "roundtrip" (Syscall_nr.name s) (Syscall_nr.name s')
      | None -> Alcotest.failf "no roundtrip for %s" (Syscall_nr.name s))
    Syscall_nr.all;
  Alcotest.(check bool) "unknown number" true (Syscall_nr.of_number 9999 = None)

(* ---------------- VFS ---------------- *)

let test_vfs_files () =
  let fs = Vfs.create () in
  (match Vfs.mkdir_p fs "/var/www" with Ok () -> () | Error e -> Alcotest.fail (Vfs.error_to_string e));
  (match Vfs.write_file fs "/var/www/index.html" (Bytes.of_string "hello") with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Vfs.error_to_string e));
  (match Vfs.read_file fs "/var/www/index.html" with
  | Ok b -> Alcotest.(check string) "contents" "hello" (Bytes.to_string b)
  | Error e -> Alcotest.fail (Vfs.error_to_string e));
  match Vfs.readdir fs "/var/www" with
  | Ok entries -> Alcotest.(check (list string)) "readdir" [ "index.html" ] entries
  | Error e -> Alcotest.fail (Vfs.error_to_string e)

let test_vfs_errors () =
  let fs = Vfs.create () in
  (match Vfs.read_file fs "/nope" with
  | Error Vfs.Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found");
  ignore (Vfs.mkdir_p fs "/d");
  (match Vfs.read_file fs "/d" with
  | Error Vfs.Is_a_directory -> ()
  | _ -> Alcotest.fail "expected Is_a_directory");
  ignore (Vfs.write_file fs "/d/f" Bytes.empty);
  match Vfs.mkdir_p fs "/d/f/sub" with
  | Error Vfs.Not_a_directory -> ()
  | _ -> Alcotest.fail "expected Not_a_directory"

let test_vfs_copy_cost () =
  Alcotest.(check bool) "per-byte cost grows" true
    (Vfs.copy_cost_ns ~bytes_len:4096 > Vfs.copy_cost_ns ~bytes_len:1024)

(* ---------------- Runqueue ---------------- *)

let make_proc () = Process.create ~aspace:(Xc_mem.Address_space.create ())

let test_cfs_blocked_skipped () =
  let s = Cfs.create () in
  let a = make_proc () and b = make_proc () in
  Cfs.add s a;
  Cfs.add s b;
  Process.set_state a Process.Blocked;
  Alcotest.(check int) "one runnable" 1 (Cfs.runnable_count s)

(* ---------------- Kernel ---------------- *)

let test_kernel_spawn_policy () =
  let stock = Kernel.create () in
  let p = Kernel.spawn stock in
  Alcotest.(check bool) "stock: kernel not global" false
    (Xc_mem.Address_space.kernel_global (Process.aspace p));
  let xlibos = Kernel.create ~config:Kernel.xlibos_config () in
  let q = Kernel.spawn xlibos in
  Alcotest.(check bool) "xlibos: kernel global" true
    (Xc_mem.Address_space.kernel_global (Process.aspace q))

let test_kernel_fork_cost_pv () =
  let stock = Kernel.create () in
  let pv = Kernel.create ~config:Kernel.xlibos_config () in
  Alcotest.(check bool) "PV fork dearer (S5.4)" true
    (Kernel.fork_cost_ns pv ~pages:640 > Kernel.fork_cost_ns stock ~pages:640);
  Alcotest.(check bool) "PV exec dearer" true
    (Kernel.exec_cost_ns pv > Kernel.exec_cost_ns stock)

let test_kernel_context_switch_global_bit () =
  let stock = Kernel.create () in
  let xlibos = Kernel.create ~config:Kernel.xlibos_config () in
  Alcotest.(check bool) "global bit saves kernel refill" true
    (Kernel.context_switch_cost_ns xlibos < Kernel.context_switch_cost_ns stock)

let test_kernel_smp_tax () =
  let smp = Kernel.create () in
  let up =
    Kernel.create ~config:{ (Kernel.config smp) with smp = false } ()
  in
  Alcotest.(check bool) "SMP locking tax (S3.2)" true
    (Kernel.syscall_work_ns up (Kernel.File_read 1024)
    < Kernel.syscall_work_ns smp (Kernel.File_read 1024))

let test_kernel_work_scaling () =
  let k = Kernel.create () in
  Alcotest.(check bool) "bigger copies cost more" true
    (Kernel.syscall_work_ns k (Kernel.File_read 65536)
    > Kernel.syscall_work_ns k (Kernel.File_read 1024));
  Alcotest.(check bool) "cheap really cheap" true
    (Kernel.syscall_work_ns k (Kernel.Cheap Syscall_nr.Getpid) < 50.)

let suites =
  [
    ( "os.syscall_nr",
      [
        Alcotest.test_case "authentic numbers" `Quick test_syscall_numbers_authentic;
        Alcotest.test_case "roundtrip" `Quick test_syscall_roundtrip;
      ] );
    ( "os.vfs",
      [
        Alcotest.test_case "files" `Quick test_vfs_files;
        Alcotest.test_case "errors" `Quick test_vfs_errors;
        Alcotest.test_case "copy cost" `Quick test_vfs_copy_cost;
      ] );
    ( "os.cfs",
      [
        Alcotest.test_case "blocked skipped" `Quick test_cfs_blocked_skipped;
      ] );
    ( "os.kernel",
      [
        Alcotest.test_case "spawn policy" `Quick test_kernel_spawn_policy;
        Alcotest.test_case "PV fork cost" `Quick test_kernel_fork_cost_pv;
        Alcotest.test_case "global-bit switch cost" `Quick
          test_kernel_context_switch_global_bit;
        Alcotest.test_case "smp tax" `Quick test_kernel_smp_tax;
        Alcotest.test_case "work scaling" `Quick test_kernel_work_scaling;
      ] );
  ]
