(* Tests for the later substrate additions: XenStore, the bottom-up boot
   estimate and the kernel-build workload. *)

(* ---------------- XenStore ---------------- *)

module Xs = Xc_hypervisor.Xenstore

let test_xenstore_tree () =
  let xs = Xs.create () in
  Xs.write xs ~path:"/local/domain/3/name" "web";
  Xs.write xs ~path:"/local/domain/3/memory" "131072";
  Alcotest.(check (option string)) "read back" (Some "web")
    (Xs.read xs ~path:"/local/domain/3/name");
  Alcotest.(check (option string)) "missing" None (Xs.read xs ~path:"/local/domain/9/name");
  Alcotest.(check (list string)) "directory" [ "memory"; "name" ]
    (Xs.directory xs ~path:"/local/domain/3")

let test_xenstore_watches () =
  let xs = Xs.create () in
  let fired = ref [] in
  Xs.watch xs ~path:"/local/domain/5" (fun p -> fired := p :: !fired);
  Xs.write xs ~path:"/local/domain/5/state" "4";
  Xs.write xs ~path:"/local/domain/6/state" "4" (* outside the watch *);
  Alcotest.(check (list string)) "watch fired once for the subtree"
    [ "/local/domain/5/state" ] !fired

let test_xenstore_handshake () =
  let xs = Xs.create () in
  let ops = Xs.device_handshake xs ~domid:3 ~device:"vif" in
  (* Both sides reach Connected. *)
  Alcotest.(check (option string)) "frontend connected" (Some "4")
    (Xs.read xs ~path:"/local/domain/3/device/vif/0/state");
  Alcotest.(check (option string)) "backend connected" (Some "4")
    (Xs.read xs ~path:"/local/domain/0/backend/vif/3/0/state");
  (* The serialised chatter the xl toolstack pays: dozens of round
     trips per device (Section 4.5's 3s total). *)
  Alcotest.(check bool) "many ops per device" true (ops >= 15);
  Alcotest.(check bool) "ops counted" true (Xs.op_count xs >= ops)

(* ---------------- Boot bottom-up estimate ---------------- *)

let test_boot_bottom_up_matches_top_down () =
  (* The XenStore-derived toolstack estimate must land within 5%% of the
     top-down 2.82s the Section 4.5 breakdown uses. *)
  let est = Xcontainers.Boot.xl_toolstack_estimate_ns () in
  let top_down = (Xcontainers.Boot.xcontainer ()).Xcontainers.Boot.toolstack_ns in
  Alcotest.(check bool)
    (Printf.sprintf "bottom-up %.0fms vs top-down %.0fms" (est /. 1e6)
       (top_down /. 1e6))
    true
    (Float.abs (est -. top_down) /. top_down < 0.05)

(* ---------------- Kernel build workload ---------------- *)

let test_kernel_build_shape () =
  let platform r = Xc_platforms.Platform.create (Xc_platforms.Config.make r) in
  let xc = platform Xc_platforms.Config.X_container in
  let rel = Xc_apps.Kernel_build.relative_to_docker xc in
  (* Process churn is XC's weak spot, but the compiler CPU dominates:
     modest slowdown, not a collapse. *)
  Alcotest.(check bool)
    (Printf.sprintf "XC slower but close (%.3f)" rel)
    true
    (rel > 0.90 && rel < 1.0);
  (* gVisor's fork/exec interception makes builds much worse. *)
  let gv = Xc_apps.Kernel_build.relative_to_docker (platform Xc_platforms.Config.Gvisor) in
  Alcotest.(check bool) "gvisor worse than XC" true (gv < rel);
  (* More parallelism shortens the build. *)
  Alcotest.(check bool) "jobs help" true
    (Xc_apps.Kernel_build.build_ns ~jobs:16 xc
    < Xc_apps.Kernel_build.build_ns ~jobs:4 xc)

let suites =
  [
    ( "hypervisor.xenstore",
      [
        Alcotest.test_case "tree" `Quick test_xenstore_tree;
        Alcotest.test_case "watches" `Quick test_xenstore_watches;
        Alcotest.test_case "device handshake" `Quick test_xenstore_handshake;
      ] );
    ( "apps.kernel_build",
      [ Alcotest.test_case "shape" `Quick test_kernel_build_shape ] );
    ( "core.boot_bottom_up",
      [
        Alcotest.test_case "xenstore estimate matches" `Quick
          test_boot_bottom_up_matches_top_down;
      ] );
  ]
