(* Tests for the memory substrate: page tables, address spaces, and the
   TLB global-bit (Section 4.3) and KPTI effects as the priced path
   charges them. *)

open Xc_mem

let pte =
  Alcotest.testable (fun ppf (p : Pte.t) -> Format.fprintf ppf "pfn %d global %b" p.pfn p.global) ( = )

(* ---------------- Page table ---------------- *)

let test_pt_map_lookup () =
  let t = Page_table.create () in
  Page_table.map t ~vpn:10 (Pte.make ~pfn:100 ());
  Alcotest.(check (option pte)) "lookup" (Some (Pte.make ~pfn:100 ()))
    (Page_table.lookup t ~vpn:10);
  Alcotest.(check (option pte)) "missing" None (Page_table.lookup t ~vpn:11);
  Alcotest.(check int) "count" 1 (Page_table.entry_count t)

let test_pt_global_count () =
  let t = Page_table.create () in
  Page_table.map t ~vpn:1 (Pte.make ~global:true ~pfn:1 ());
  Page_table.map t ~vpn:2 (Pte.make ~global:false ~pfn:2 ());
  Alcotest.(check int) "one global" 1 (Page_table.global_count t);
  (* Remap the global page as non-global: count drops. *)
  Page_table.map t ~vpn:1 (Pte.make ~global:false ~pfn:1 ());
  Alcotest.(check int) "remapped" 0 (Page_table.global_count t)

let test_pt_map_range_and_copy () =
  let t = Page_table.create () in
  Page_table.map_range t ~vpn:100 ~pages:16 ~first_pfn:500 ~flags:(fun ~pfn ->
      Pte.make ~pfn ());
  Alcotest.(check int) "16 entries" 16 (Page_table.entry_count t);
  match Page_table.lookup t ~vpn:107 with
  | Some p -> Alcotest.(check int) "consecutive pfn" 507 p.Pte.pfn
  | None -> Alcotest.fail "vpn 107 missing"

(* ---------------- Address space ---------------- *)

let test_aspace_map_validation () =
  let a = Address_space.create () in
  Alcotest.check_raises "user map in kernel half"
    (Invalid_argument "map_user: above user half") (fun () ->
      Address_space.map_user a ~vpn:Address_space.kernel_base_vpn ~pages:1
        ~first_pfn:0);
  Alcotest.check_raises "kernel map in user half"
    (Invalid_argument "map_kernel: below kernel half") (fun () ->
      Address_space.map_kernel a ~global:true ~vpn:0 ~pages:1 ~first_pfn:0)

let test_aspace_global_policy () =
  (* Stock PV guest: no global bit; X-LibOS: global bit set. *)
  let pv = Address_space.create () in
  Address_space.map_kernel pv ~global:false ~vpn:Address_space.kernel_base_vpn
    ~pages:8 ~first_pfn:0;
  Address_space.map_user pv ~vpn:10 ~pages:4 ~first_pfn:100;
  Alcotest.(check bool) "pv kernel not global" false (Address_space.kernel_global pv);
  let xc = Address_space.create () in
  Address_space.map_kernel xc ~global:true ~vpn:Address_space.kernel_base_vpn
    ~pages:8 ~first_pfn:0;
  Alcotest.(check bool) "xlibos kernel global" true (Address_space.kernel_global xc);
  Alcotest.(check int) "kernel pages" 8 (Address_space.kernel_pages xc);
  Alcotest.(check int) "user pages" 4 (Address_space.user_pages pv)

(* ---------------- TLB global bit ---------------- *)

(* The Section 4.3 effect, priced: with global kernel mappings a process
   switch keeps the kernel's TLB entries, so the switch saves exactly
   the kernel refill and nothing else. *)
let test_tlb_global_bit_effect () =
  let switch_ns config =
    Xc_os.Kernel.context_switch_cost_ns (Xc_os.Kernel.create ~config ())
  in
  let stock = Xc_os.Kernel.(config (create ())) in
  Alcotest.(check (float 1e-9)) "X-LibOS (global): no kernel refill"
    (switch_ns stock -. Xc_cpu.Costs.tlb_refill_kernel_ns)
    (switch_ns { stock with Xc_os.Kernel.kernel_global = true })

(* ---------------- KPTI ---------------- *)

(* KPTI writes CR3 on every kernel entry and again on the exit.  A
   patched Docker syscall pays both transitions plus the TLB side
   effect, a patched interrupt the two transitions; the X-Container's
   entry and event paths never switch page tables (Section 5.4). *)
let test_kpti_transitions () =
  let module C = Xc_platforms.Config in
  let module S = Xc_platforms.Syscall_path in
  let delta f runtime =
    f (C.make ~meltdown_patched:true runtime)
    -. f (C.make ~meltdown_patched:false runtime)
  in
  let two = 2. *. Xc_cpu.Costs.kpti_transition_ns in
  Alcotest.(check (float 1e-9)) "syscall: two CR3 writes + TLB side"
    (two +. Xc_cpu.Costs.kpti_tlb_side_ns)
    (delta S.entry_ns C.Docker);
  Alcotest.(check (float 1e-9)) "interrupt: two CR3 writes" two
    (delta S.interrupt_ns C.Docker);
  Alcotest.(check (float 1e-9)) "X-Container syscall: none" 0.
    (delta S.entry_ns C.X_container);
  Alcotest.(check (float 1e-9)) "X-Container interrupt: none" 0.
    (delta S.interrupt_ns C.X_container)

let suites =
  [
    ( "mem.page_table",
      [
        Alcotest.test_case "map/lookup" `Quick test_pt_map_lookup;
        Alcotest.test_case "global count" `Quick test_pt_global_count;
        Alcotest.test_case "map_range/copy" `Quick test_pt_map_range_and_copy;
      ] );
    ( "mem.address_space",
      [
        Alcotest.test_case "map validation" `Quick test_aspace_map_validation;
        Alcotest.test_case "global policy" `Quick test_aspace_global_policy;
      ] );
    ( "mem.tlb",
      [
        Alcotest.test_case "global-bit effect (S4.3)" `Quick
          test_tlb_global_bit_effect;
      ] );
    ("mem.kpti", [ Alcotest.test_case "transitions" `Quick test_kpti_transitions ]);
  ]
