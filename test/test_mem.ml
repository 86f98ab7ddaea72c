(* Tests for the memory effects the priced path charges: the TLB
   global bit (Section 4.3) and KPTI. *)

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
    ( "mem.tlb",
      [
        Alcotest.test_case "global-bit effect (S4.3)" `Quick
          test_tlb_global_bit_effect;
      ] );
    ("mem.kpti", [ Alcotest.test_case "transitions" `Quick test_kpti_transitions ]);
  ]
