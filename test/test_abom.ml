(* Tests for ABOM: the online binary patcher, its equivalence guarantees
   (including intermediate patch states and stray jumps into patched
   code), and the offline tool. *)

open Xc_isa
open Xc_abom

let insn = Alcotest.testable Insn.pp ( = )

let fresh_patcher () = Patcher.create (Entry_table.create ())

let run_to_halt m =
  match Machine.run m with
  | Machine.Halted -> ()
  | Fuel_exhausted -> Alcotest.fail "fuel exhausted"
  | Fault msg -> Alcotest.fail ("fault: " ^ msg)

(* Execute a program under the X-Kernel (ABOM live), [repeat] times, and
   return the machine. *)
let run_with_abom ?(repeat = 2) patcher (prog : Builder.program) =
  let config = Patcher.machine_config patcher () in
  let m = Machine.create ~config prog.image ~entry:prog.entry in
  for _ = 1 to repeat do
    Machine.reset m ~entry:prog.entry;
    run_to_halt m
  done;
  m

(* ---------------- Entry table ---------------- *)

let test_entry_table_addresses () =
  let t = Entry_table.create () in
  Alcotest.(check int64) "syscall 0" 0xffffffffff600000L (Entry_table.address_of t 0);
  Alcotest.(check int64) "syscall 1" 0xffffffffff600008L (Entry_table.address_of t 1);
  Alcotest.(check int64) "dynamic" 0xffffffffff600c08L Entry_table.dynamic_address

let test_entry_table_lookup () =
  let t = Entry_table.create () in
  let addr = Entry_table.address_of t 39 in
  (match Entry_table.lookup t addr with
  | Some (Machine.Fixed 39) -> ()
  | _ -> Alcotest.fail "fixed lookup");
  (match Entry_table.lookup t Entry_table.dynamic_address with
  | Some Machine.Dynamic -> ()
  | _ -> Alcotest.fail "dynamic lookup");
  (match Entry_table.lookup t 0x1234L with
  | None -> ()
  | Some _ -> Alcotest.fail "foreign address must not resolve");
  (* Misaligned address inside the table range. *)
  match Entry_table.lookup t 0xffffffffff600004L with
  | None -> ()
  | Some _ -> Alcotest.fail "misaligned address must not resolve"

let test_entry_table_bounds () =
  let t = Entry_table.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Entry_table.address_of: syscall number out of range")
    (fun () -> ignore (Entry_table.address_of t (-1)));
  Alcotest.check_raises "too large"
    (Invalid_argument "Entry_table.address_of: syscall number out of range")
    (fun () -> ignore (Entry_table.address_of t Entry_table.max_syscalls));
  ignore (Entry_table.address_of t 5);
  ignore (Entry_table.address_of t 5);
  Alcotest.(check (list int)) "registered dedup" [ 5 ] (Entry_table.registered t)

(* ---------------- 7-byte case 1 ---------------- *)

let test_patch_case1_bytes () =
  let prog = Builder.build [ (Builder.Glibc_small, 0) ] in
  let site = List.hd prog.sites in
  let p = fresh_patcher () in
  (match Patcher.patch_site p prog.image ~syscall_off:site.syscall_off with
  | Patcher.Patched_case1 -> ()
  | other -> Alcotest.failf "expected case1, got %s" (Patcher.outcome_to_string other));
  (* The mov+syscall pair is now a single 7-byte call. *)
  let patched, len = Image.insn_at prog.image site.wrapper_off in
  Alcotest.check insn "call installed" (Call_abs 0xffffffffff600000L) patched;
  Alcotest.(check int) "7 bytes" 7 len;
  Alcotest.(check int) "one cmpxchg" 1 (Patcher.cmpxchg_ops p);
  (* Code page is read-only, so the patch dirtied it. *)
  Alcotest.(check bool) "page dirty" true
    (Image.page_dirty prog.image ~page:(site.wrapper_off / Image.page_size))

let test_patch_case1_equivalence () =
  let prog = Builder.build [ (Builder.Glibc_small, 3); (Builder.Glibc_small, 39) ] in
  let p = fresh_patcher () in
  let m = run_with_abom ~repeat:3 p prog in
  Alcotest.(check (list int)) "same syscall sequence" [ 3; 39; 3; 39; 3; 39 ]
    (Machine.syscall_numbers m);
  (* First run trapped, later runs went through the call. *)
  let kinds = List.map (fun (e : Machine.event) -> e.kind) (Machine.events m) in
  Alcotest.(check (list bool)) "trap then fast"
    [ true; true; false; false; false; false ]
    (List.map (fun k -> k = `Trap) kinds)

(* ---------------- 7-byte case 2 (Go) ---------------- *)

let test_patch_case2 () =
  let prog = Builder.build [ (Builder.Go_stack, 231) ] in
  let site = List.hd prog.sites in
  let p = fresh_patcher () in
  (match Patcher.patch_site p prog.image ~syscall_off:site.syscall_off with
  | Patcher.Patched_case2 -> ()
  | other -> Alcotest.failf "expected case2, got %s" (Patcher.outcome_to_string other));
  let patched, _ = Image.insn_at prog.image site.wrapper_off in
  Alcotest.check insn "dynamic entry" (Call_abs Entry_table.dynamic_address) patched

let test_patch_case2_equivalence () =
  let prog = Builder.build [ (Builder.Go_stack, 231) ] in
  let p = fresh_patcher () in
  let m = run_with_abom ~repeat:3 p prog in
  (* The dynamic handler must still read the right syscall number from
     the caller's stack after patching. *)
  Alcotest.(check (list int)) "sysno preserved" [ 231; 231; 231 ]
    (Machine.syscall_numbers m)

(* ---------------- 9-byte two-phase ---------------- *)

let test_patch_9byte_full () =
  let prog = Builder.build [ (Builder.Glibc_wide, 1) ] in
  let site = List.hd prog.sites in
  let p = fresh_patcher () in
  (match Patcher.patch_site p prog.image ~syscall_off:site.syscall_off with
  | Patcher.Patched_9byte -> ()
  | other -> Alcotest.failf "expected 9byte, got %s" (Patcher.outcome_to_string other));
  Alcotest.(check int) "two cmpxchg (one per phase)" 2 (Patcher.cmpxchg_ops p);
  let call, _ = Image.insn_at prog.image site.wrapper_off in
  Alcotest.check insn "phase1 call" (Call_abs 0xffffffffff600008L) call;
  let jmp, _ = Image.insn_at prog.image site.syscall_off in
  Alcotest.check insn "phase2 jmp back" (Jmp_rel8 (-9)) jmp

let test_patch_9byte_phase1_intermediate_state () =
  (* The paper's concurrency argument: after phase 1 alone the binary
     must still be equivalent (the LibOS return-address check skips the
     leftover syscall).  Freeze phase 1 and execute. *)
  let prog = Builder.build [ (Builder.Glibc_wide, 60) ] in
  let site = List.hd prog.sites in
  let p = fresh_patcher () in
  (match
     Patcher.patch_site ~stop_after_phase1:true p prog.image
       ~syscall_off:site.syscall_off
   with
  | Patcher.Patched_9byte -> ()
  | other -> Alcotest.failf "unexpected %s" (Patcher.outcome_to_string other));
  (* The original syscall is still there. *)
  let leftover, _ = Image.insn_at prog.image site.syscall_off in
  Alcotest.check insn "syscall left in place" Insn.Syscall leftover;
  let config = Machine.xcontainer_config ~lookup:(Entry_table.lookup (Patcher.table p)) () in
  let m = Machine.create ~config prog.image ~entry:prog.entry in
  run_to_halt m;
  (* Exactly one syscall event (fast), not two: the skip check consumed
     the trailing syscall instruction. *)
  Alcotest.(check (list int)) "one syscall, right number" [ 60 ]
    (Machine.syscall_numbers m);
  match Machine.events m with
  | [ e ] -> Alcotest.(check bool) "fast path" true (e.kind = `Fast)
  | _ -> Alcotest.fail "expected exactly one event"

let test_patch_9byte_phase2_jmp_execution () =
  (* After the full patch, control falling onto the jmp must bounce back
     into the call and still perform exactly one syscall. *)
  let prog = Builder.build [ (Builder.Glibc_wide, 2) ] in
  let p = fresh_patcher () in
  let m = run_with_abom ~repeat:2 p prog in
  Alcotest.(check (list int)) "trace" [ 2; 2 ] (Machine.syscall_numbers m)

(* ---------------- stray jump into patched bytes ---------------- *)

(* A one-wrapper program with a second entry point that sets eax and
   jumps straight at the wrapper's syscall instruction. *)
let direct_jump_program ~sysno =
  let prog = Builder.build [ (Builder.Glibc_small, sysno) ] in
  let site = List.hd prog.sites in
  let entry = Image.size prog.image - 32 in
  let mov = Insn.Mov_eax_imm32 sysno in
  let disp = site.syscall_off - (entry + Insn.length mov + 5) in
  ignore (Image.emit_list prog.image ~off:entry [ mov; Jmp_rel32 disp ]);
  { prog with entry }

let test_invalid_opcode_fixup () =
  (* A second entry point jumps directly at the original syscall
     location; after the 7-byte patch that lands mid-call on 0x60 0xff,
     and the X-Kernel fixup must back rip up onto the call. *)
  let prog = direct_jump_program ~sysno:13 in
  let site = List.hd prog.sites in
  let p = fresh_patcher () in
  (* Patch the site first (as if the wrapper path ran earlier). *)
  (match Patcher.patch_site p prog.image ~syscall_off:site.syscall_off with
  | Patcher.Patched_case1 -> ()
  | other -> Alcotest.failf "unexpected %s" (Patcher.outcome_to_string other));
  let config = Machine.xcontainer_config ~lookup:(Entry_table.lookup (Patcher.table p)) () in
  let m = Machine.create ~config prog.image ~entry:prog.entry in
  run_to_halt m;
  Alcotest.(check (list int)) "fixup preserves the syscall" [ 13 ]
    (Machine.syscall_numbers m)

let test_invalid_opcode_without_fixup_faults () =
  let prog = direct_jump_program ~sysno:13 in
  let site = List.hd prog.sites in
  let p = fresh_patcher () in
  ignore (Patcher.patch_site p prog.image ~syscall_off:site.syscall_off);
  (* Plain CPU without the X-Kernel trap handler: must fault. *)
  let config =
    {
      Machine.vsyscall_lookup = Entry_table.lookup (Patcher.table p);
      on_syscall_trap = None;
      libos_skip_check = false;
      invalid_opcode_fixup = false;
    }
  in
  let m = Machine.create ~config prog.image ~entry:prog.entry in
  match Machine.run m with
  | Fault _ -> ()
  | _ -> Alcotest.fail "expected invalid-opcode fault without the fixup"

(* ---------------- unrecognised / already patched ---------------- *)

let test_cancellable_unrecognized () =
  let prog = Builder.build [ (Builder.Cancellable, 0) ] in
  let site = List.hd prog.sites in
  let p = fresh_patcher () in
  match Patcher.patch_site p prog.image ~syscall_off:site.syscall_off with
  | Patcher.Unrecognized -> ()
  | other -> Alcotest.failf "expected unrecognized, got %s" (Patcher.outcome_to_string other)

let test_already_patched () =
  let prog = Builder.build [ (Builder.Glibc_small, 0) ] in
  let site = List.hd prog.sites in
  let p = fresh_patcher () in
  ignore (Patcher.patch_site p prog.image ~syscall_off:site.syscall_off);
  (* A concurrent vCPU trapping on the same (now rewritten) site. *)
  match Patcher.patch_site p prog.image ~syscall_off:site.syscall_off with
  | Patcher.Already_patched -> ()
  | other -> Alcotest.failf "expected already, got %s" (Patcher.outcome_to_string other)

let test_cancellable_keeps_trapping () =
  let prog = Builder.build [ (Builder.Cancellable, 4) ] in
  let p = fresh_patcher () in
  let m = run_with_abom ~repeat:3 p prog in
  List.iter
    (fun (e : Machine.event) ->
      Alcotest.(check bool) "always trap" true (e.kind = `Trap))
    (Machine.events m);
  Alcotest.(check int) "unrecognized counted" 3 (Patcher.unrecognized_sites p)

(* ---------------- offline tool ---------------- *)

let test_offline_patches_everything_patchable () =
  let prog =
    Builder.build
      [
        (Builder.Glibc_small, 0);
        (Builder.Glibc_wide, 1);
        (Builder.Go_stack, 39);
        (Builder.Cancellable, 3);
        (Builder.Exotic, 4);
      ]
  in
  let p = fresh_patcher () in
  let report = Offline_tool.patch_image p prog.image in
  Alcotest.(check int) "sites seen" 5 report.sites_seen;
  Alcotest.(check int) "3 patched (no aggressive)" 3 report.sites_patched;
  Alcotest.(check int) "2 skipped" 2 report.sites_skipped

let test_offline_aggressive_cancellable () =
  let prog =
    Builder.build [ (Builder.Cancellable, 0); (Builder.Exotic, 1) ]
  in
  let p = fresh_patcher () in
  let report = Offline_tool.patch_image ~aggressive:true p prog.image in
  Alcotest.(check int) "cancellable patched" 1 report.sites_patched;
  Alcotest.(check int) "exotic still skipped" 1 report.sites_skipped

let test_offline_aggressive_equivalence () =
  let prog = Builder.build [ (Builder.Cancellable, 11) ] in
  let p = fresh_patcher () in
  ignore (Offline_tool.patch_image ~aggressive:true p prog.image);
  let config = Machine.xcontainer_config ~lookup:(Entry_table.lookup (Patcher.table p)) () in
  let m = Machine.create ~config prog.image ~entry:prog.entry in
  run_to_halt m;
  Alcotest.(check (list int)) "offline-patched trace" [ 11 ]
    (Machine.syscall_numbers m);
  match Machine.events m with
  | [ e ] -> Alcotest.(check bool) "fast" true (e.kind = `Fast)
  | _ -> Alcotest.fail "one event expected"

(* ---------------- equivalence property ---------------- *)

let abom_equivalence_prop =
  let style_gen =
    QCheck.Gen.oneofl
      [ Builder.Glibc_small; Builder.Glibc_wide; Builder.Go_stack; Builder.Cancellable ]
  in
  let prog_gen =
    QCheck.Gen.(list_size (int_range 1 8) (pair style_gen (int_range 0 300)))
  in
  QCheck.Test.make ~name:"patched binary is trace-equivalent" ~count:150
    (QCheck.make prog_gen) (fun wrappers ->
      let reference =
        let prog = Builder.build wrappers in
        let m = Machine.create prog.image ~entry:prog.entry in
        (* Two plain runs as the reference trace. *)
        ignore (Machine.run m);
        Machine.reset m ~entry:prog.entry;
        ignore (Machine.run m);
        Machine.syscall_numbers m
      in
      let patched =
        let prog = Builder.build wrappers in
        let p = fresh_patcher () in
        let m = run_with_abom ~repeat:2 p prog in
        Machine.syscall_numbers m
      in
      reference = patched)

let suites =
  [
    ( "abom.entry_table",
      [
        Alcotest.test_case "addresses" `Quick test_entry_table_addresses;
        Alcotest.test_case "lookup" `Quick test_entry_table_lookup;
        Alcotest.test_case "bounds" `Quick test_entry_table_bounds;
      ] );
    ( "abom.patcher",
      [
        Alcotest.test_case "case1 bytes" `Quick test_patch_case1_bytes;
        Alcotest.test_case "case1 equivalence" `Quick test_patch_case1_equivalence;
        Alcotest.test_case "case2 (Go)" `Quick test_patch_case2;
        Alcotest.test_case "case2 equivalence" `Quick test_patch_case2_equivalence;
        Alcotest.test_case "9-byte full" `Quick test_patch_9byte_full;
        Alcotest.test_case "9-byte phase-1 state" `Quick
          test_patch_9byte_phase1_intermediate_state;
        Alcotest.test_case "9-byte phase-2 jmp" `Quick
          test_patch_9byte_phase2_jmp_execution;
        Alcotest.test_case "invalid-opcode fixup" `Quick test_invalid_opcode_fixup;
        Alcotest.test_case "no fixup -> fault" `Quick
          test_invalid_opcode_without_fixup_faults;
        Alcotest.test_case "cancellable unrecognized" `Quick
          test_cancellable_unrecognized;
        Alcotest.test_case "already patched" `Quick test_already_patched;
        Alcotest.test_case "cancellable keeps trapping" `Quick
          test_cancellable_keeps_trapping;
        QCheck_alcotest.to_alcotest abom_equivalence_prop;
      ] );
    ( "abom.offline",
      [
        Alcotest.test_case "patches patchable" `Quick
          test_offline_patches_everything_patchable;
        Alcotest.test_case "aggressive cancellable" `Quick
          test_offline_aggressive_cancellable;
        Alcotest.test_case "aggressive equivalence" `Quick
          test_offline_aggressive_equivalence;
      ] );
  ]
