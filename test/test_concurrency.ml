(* Concurrency safety of ABOM (Section 4.4).

   "Since each cmpxchg instruction can handle at most eight bytes, if we
   need to modify more than eight bytes, we need to make sure that any
   intermediate state of the binary is still valid for the sake of
   multicore concurrency safety."

   These tests run two vCPUs of one container — two machines sharing one
   image — under randomly interleaved stepping.  vCPU A's traps patch
   sites while vCPU B is anywhere in its own execution, including the
   frozen intermediate phase of the 9-byte rewrite and direct jumps into
   rewritten bytes.  Every interleaving must preserve both vCPUs'
   syscall traces. *)

open Xc_isa

let expected_trace wrappers repeat =
  List.concat (List.init repeat (fun _ -> List.map snd wrappers))

(* Interleave two machines until both halt; returns true if both halted
   cleanly within fuel. *)
let interleave ~rng ~fuel a b =
  let done_a = ref false and done_b = ref false in
  let budget = ref fuel in
  let ok = ref true in
  while (not (!done_a && !done_b)) && !ok && !budget > 0 do
    decr budget;
    let pick_a =
      if !done_a then false
      else if !done_b then true
      else Xc_sim.Prng.int rng 2 = 1
    in
    let m, flag = if pick_a then (a, done_a) else (b, done_b) in
    match Machine.step_once m with
    | None -> ()
    | Some Machine.Halted -> flag := true
    | Some (Machine.Fault _) | Some Machine.Fuel_exhausted -> ok := false
  done;
  !ok && !done_a && !done_b

let run_pair ~seed wrappers =
  let prog = Builder.build wrappers in
  let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
  let config = Xc_abom.Patcher.machine_config patcher () in
  (* Two vCPUs, same image, separate register/stack state. *)
  let a = Machine.create ~config prog.image ~entry:prog.entry in
  let b = Machine.create ~config prog.image ~entry:prog.entry in
  let rng = Xc_sim.Prng.create seed in
  let rounds = 3 in
  let all_ok = ref true in
  for _ = 1 to rounds do
    Machine.reset a ~entry:prog.entry;
    Machine.reset b ~entry:prog.entry;
    if not (interleave ~rng ~fuel:100_000 a b) then all_ok := false
  done;
  (!all_ok, Machine.syscall_numbers a, Machine.syscall_numbers b)

let test_two_vcpus_basic () =
  let wrappers = [ (Builder.Glibc_small, 3); (Builder.Glibc_wide, 7) ] in
  let ok, ta, tb = run_pair ~seed:11 wrappers in
  Alcotest.(check bool) "no faults" true ok;
  let expected = expected_trace wrappers 3 in
  Alcotest.(check (list int)) "vcpu A trace" expected ta;
  Alcotest.(check (list int)) "vcpu B trace" expected tb

let test_racing_through_patch_phases () =
  (* Dense 9-byte sites maximise the chance B executes mid-phase code. *)
  let wrappers =
    [
      (Builder.Glibc_wide, 1);
      (Builder.Glibc_wide, 2);
      (Builder.Glibc_wide, 3);
      (Builder.Glibc_wide, 4);
    ]
  in
  let ok, ta, tb = run_pair ~seed:23 wrappers in
  Alcotest.(check bool) "no faults" true ok;
  let expected = expected_trace wrappers 3 in
  Alcotest.(check (list int)) "vcpu A trace" expected ta;
  Alcotest.(check (list int)) "vcpu B trace" expected tb

let test_phase1_frozen_while_other_vcpu_runs () =
  (* Patch phase 1 only (as if the patching vCPU were preempted between
     the two cmpxchgs), then let another vCPU run the binary. *)
  let prog = Builder.build [ (Builder.Glibc_wide, 42) ] in
  let site = List.hd prog.sites in
  let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
  (match
     Xc_abom.Patcher.patch_site ~stop_after_phase1:true patcher prog.image
       ~syscall_off:site.Builder.syscall_off
   with
  | Xc_abom.Patcher.Patched_9byte -> ()
  | other -> Alcotest.failf "unexpected %s" (Xc_abom.Patcher.outcome_to_string other));
  let config =
    Machine.xcontainer_config
      ~lookup:(Xc_abom.Entry_table.lookup (Xc_abom.Patcher.table patcher))
      ()
  in
  let b = Machine.create ~config prog.image ~entry:prog.entry in
  (match Machine.run b with
  | Machine.Halted -> ()
  | Fault m -> Alcotest.fail m
  | Fuel_exhausted -> Alcotest.fail "fuel");
  Alcotest.(check (list int)) "intermediate state equivalent" [ 42 ]
    (Machine.syscall_numbers b)

let concurrency_prop =
  let style_gen =
    QCheck.Gen.oneofl
      Builder.[ Glibc_small; Glibc_wide; Go_stack; Cancellable ]
  in
  QCheck.Test.make ~name:"interleaved vcpus keep correct traces" ~count:60
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 1 10_000)
           (list_size (int_range 1 5) (pair style_gen (int_range 0 300)))))
    (fun (seed, wrappers) ->
      let ok, ta, tb = run_pair ~seed wrappers in
      let expected = expected_trace wrappers 3 in
      ok && ta = expected && tb = expected)

let suites =
  [
    ( "abom.concurrency",
      [
        Alcotest.test_case "two vcpus" `Quick test_two_vcpus_basic;
        Alcotest.test_case "racing through patch phases" `Quick
          test_racing_through_patch_phases;
        Alcotest.test_case "phase-1 frozen, other vcpu runs" `Quick
          test_phase1_frozen_while_other_vcpu_runs;
        QCheck_alcotest.to_alcotest concurrency_prop;
      ] );
  ]
