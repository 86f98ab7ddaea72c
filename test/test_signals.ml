(* Tests for the signal-delivery protocol and Figure 2's __restore_rt:
   the rt_sigreturn trampoline keeps working after ABOM's two-phase
   9-byte rewrite. *)

open Xc_isa

(* The frame a delivered signal leaves, built in-program: an entry stub
   at [stub] calls a shim, the 5-byte call just before [restorer], which
   calls [handler].  The handler's [ret] then lands on [restorer], and
   rt_sigreturn resumes at the stub's jump back to [interrupted].
   Returns the stub, the entry point that delivers the signal. *)
let signal_entry img ~stub ~interrupted ~handler ~restorer =
  let shim = restorer - 5 in
  ignore (Image.emit_list img ~off:shim [ Insn.Call_rel32 (handler - restorer) ]);
  ignore
    (Image.emit_list img ~off:stub
       [ Insn.Call_rel32 (shim - (stub + 5)); Jmp_rel32 (interrupted - (stub + 10)) ]);
  stub

(* Build an image with:
   - main: a syscall-39 wrapper call, then hlt;
   - handler: a nop, then ret (falls into the restorer via the frame);
   - __restore_rt: mov $0xf,%rax; syscall  (the exact Figure 2 bytes);
   - the entry stub delivering a signal that interrupts main's start.
   Returns the stub as the entry point. *)
let build_scenario () =
  let img = Image.create ~size:4096 () in
  let main = 0 in
  (* main: mov eax,39; syscall; hlt  (inline, keeps offsets simple) *)
  let off = Image.emit_list img ~off:main [ Insn.Mov_eax_imm32 39; Syscall; Hlt ] in
  let handler = off + 8 in
  ignore (Image.emit_list img ~off:handler [ Insn.Nop; Ret ]);
  let restorer = handler + 16 in
  let restorer_end =
    Image.emit_list img ~off:restorer [ Insn.Mov_rax_imm32 15; Syscall ]
  in
  let sigreturn_syscall_off = restorer_end - 2 in
  let entry = signal_entry img ~stub:(restorer + 32) ~interrupted:main ~handler ~restorer in
  (img, entry, restorer, sigreturn_syscall_off)

let run_to_halt m =
  match Machine.run ~fuel:10_000 m with
  | Machine.Halted -> ()
  | Fault msg -> Alcotest.fail msg
  | Fuel_exhausted -> Alcotest.fail "fuel"

let test_signal_roundtrip_trap_path () =
  let img, entry, _, _ = build_scenario () in
  let m = Machine.create img ~entry in
  run_to_halt m;
  (* Trace: rt_sigreturn from the trampoline, then main's syscall 39. *)
  Alcotest.(check (list int)) "sigreturn then resumed work" [ 15; 39 ]
    (Machine.syscall_numbers m)

let test_signal_roundtrip_patched_path () =
  let img, entry, restorer, sigreturn_off = build_scenario () in
  let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
  (* Patch __restore_rt ahead of time: the Figure 2 9-byte rewrite. *)
  (match Xc_abom.Patcher.patch_site patcher img ~syscall_off:sigreturn_off with
  | Xc_abom.Patcher.Patched_9byte -> ()
  | other -> Alcotest.failf "expected 9-byte patch, got %s"
               (Xc_abom.Patcher.outcome_to_string other));
  (match Image.insn_at img restorer with
  | Insn.Call_abs a, 7 ->
      Alcotest.(check int64) "entry 15" 0xffffffffff600078L a
  | _ -> Alcotest.fail "restorer not rewritten");
  let config = Xc_abom.Patcher.machine_config patcher () in
  let m = Machine.create ~config img ~entry in
  run_to_halt m;
  let events = Machine.events m in
  Alcotest.(check (list int)) "same trace through the patched trampoline"
    [ 15; 39 ]
    (Machine.syscall_numbers m);
  (* The sigreturn went through the fast path. *)
  (match events with
  | first :: _ -> Alcotest.(check bool) "fast sigreturn" true (first.Machine.kind = `Fast)
  | [] -> Alcotest.fail "no events")

let test_signal_live_patching () =
  (* Two deliveries: the first traps (and ABOM patches __restore_rt on
     the fly), the second goes through the call. *)
  let img, entry, _, _ = build_scenario () in
  let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
  let config = Xc_abom.Patcher.machine_config patcher () in
  let m = Machine.create ~config img ~entry in
  run_to_halt m;
  Machine.reset m ~entry;
  run_to_halt m;
  let sig15 =
    List.filter (fun (e : Machine.event) -> e.sysno = 15) (Machine.events m)
  in
  (match sig15 with
  | [ first; second ] ->
      Alcotest.(check bool) "first delivery trapped" true (first.kind = `Trap);
      Alcotest.(check bool) "second delivery fast" true (second.kind = `Fast)
  | _ -> Alcotest.fail "expected two sigreturns");
  (* Main's syscall was also patched (7-byte case 1) and resumed right. *)
  Alcotest.(check (list int)) "full trace" [ 15; 39; 15; 39 ]
    (Machine.syscall_numbers m)

let test_nested_handler_work () =
  (* The handler itself makes a syscall before returning: ordering must
     be handler's syscall, sigreturn, then the interrupted work. *)
  let img = Image.create ~size:4096 () in
  let main = 0 in
  ignore (Image.emit_list img ~off:main [ Insn.Mov_eax_imm32 1; Syscall; Hlt ]);
  let handler = 32 in
  ignore (Image.emit_list img ~off:handler [ Insn.Mov_eax_imm32 14; Syscall; Ret ]);
  let restorer = 64 in
  ignore (Image.emit_list img ~off:restorer [ Insn.Mov_rax_imm32 15; Syscall ]);
  let entry = signal_entry img ~stub:96 ~interrupted:main ~handler ~restorer in
  let m = Machine.create img ~entry in
  run_to_halt m;
  Alcotest.(check (list int)) "handler, sigreturn, resumed" [ 14; 15; 1 ]
    (Machine.syscall_numbers m)

let suites =
  [
    ( "isa.signals",
      [
        Alcotest.test_case "roundtrip via trap" `Quick test_signal_roundtrip_trap_path;
        Alcotest.test_case "roundtrip via patched trampoline" `Quick
          test_signal_roundtrip_patched_path;
        Alcotest.test_case "live patching across deliveries" `Quick
          test_signal_live_patching;
        Alcotest.test_case "nested handler work" `Quick test_nested_handler_work;
      ] );
  ]
