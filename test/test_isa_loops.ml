(* Tests for the looped-binary support: counter/branch semantics, codec
   round trips of the new instructions, and ABOM behaviour inside a
   natively looping workload. *)

open Xc_isa

let insn = Alcotest.testable Insn.pp ( = )

let test_codec_roundtrip () =
  List.iter
    (fun i ->
      let buf = Codec.encode i in
      let decoded, len = Codec.decode buf 0 in
      Alcotest.check insn (Format.asprintf "%a" Insn.pp i) i decoded;
      Alcotest.(check int) "length" (Insn.length i) len)
    [ Insn.Mov_rcx_imm32 1000; Dec_rcx; Jnz_rel8 (-20); Jnz_rel8 5 ]

let test_loop_executes_n_times () =
  let prog = Builder.build ~loop_iterations:25 [ (Builder.Glibc_small, 39) ] in
  let m = Machine.create prog.image ~entry:prog.entry in
  (match Machine.run m with
  | Machine.Halted -> ()
  | Fault msg -> Alcotest.fail msg
  | Fuel_exhausted -> Alcotest.fail "fuel");
  Alcotest.(check int) "25 syscalls" 25 (List.length (Machine.syscall_numbers m))

let test_loop_multi_wrapper_order () =
  let prog =
    Builder.build ~loop_iterations:3
      [ (Builder.Glibc_small, 1); (Builder.Glibc_wide, 2); (Builder.Go_stack, 3) ]
  in
  let m = Machine.create prog.image ~entry:prog.entry in
  ignore (Machine.run m);
  Alcotest.(check (list int)) "interleaved trace"
    [ 1; 2; 3; 1; 2; 3; 1; 2; 3 ]
    (Machine.syscall_numbers m)

let test_loop_with_abom () =
  (* One execution of a looped binary: first iteration traps and patches,
     the remaining iterations run on the fast path — no machine resets. *)
  let prog =
    Builder.build ~loop_iterations:100
      [ (Builder.Glibc_small, 0); (Builder.Glibc_wide, 1) ]
  in
  let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
  let config = Xc_abom.Patcher.machine_config patcher () in
  let m = Machine.create ~config prog.image ~entry:prog.entry in
  (match Machine.run ~fuel:100_000 m with
  | Machine.Halted -> ()
  | Fault msg -> Alcotest.fail msg
  | Fuel_exhausted -> Alcotest.fail "fuel");
  let events = Machine.events m in
  Alcotest.(check int) "200 syscalls" 200 (List.length events);
  let traps = List.filter (fun (e : Machine.event) -> e.kind = `Trap) events in
  Alcotest.(check int) "exactly one trap per site" 2 (List.length traps);
  Alcotest.(check int) "two sites patched" 2 (Xc_abom.Patcher.patched_sites patcher)

let test_loop_equivalence_with_unpatched () =
  let trace ~abom =
    let prog =
      Builder.build ~loop_iterations:10
        [ (Builder.Glibc_wide, 7); (Builder.Cancellable, 8) ]
    in
    let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
    let config = Xc_abom.Patcher.machine_config ~enabled:abom patcher () in
    let m = Machine.create ~config prog.image ~entry:prog.entry in
    ignore (Machine.run ~fuel:100_000 m);
    Machine.syscall_numbers m
  in
  Alcotest.(check (list int)) "same trace with and without ABOM"
    (trace ~abom:false) (trace ~abom:true)

let test_loop_validation () =
  Alcotest.check_raises "zero iterations"
    (Invalid_argument "Builder.build: loop_iterations must be positive") (fun () ->
      ignore (Builder.build ~loop_iterations:0 [ (Builder.Glibc_small, 0) ]));
  (* 25 wrappers x 5 bytes = 125 + dec/jnz > 127: out of rel8 reach. *)
  let too_many = List.init 25 (fun i -> (Builder.Glibc_small, i)) in
  Alcotest.check_raises "body too large"
    (Invalid_argument "Builder.build: loop body exceeds jnz rel8 reach") (fun () ->
      ignore (Builder.build ~loop_iterations:5 too_many))

let test_dec_jnz_semantics () =
  (* A bare countdown: mov rcx,3; loop: dec; jnz loop; hlt. *)
  let img = Image.create ~size:64 () in
  let off = Image.emit_list img ~off:0 [ Insn.Mov_rcx_imm32 3 ] in
  let loop_start = off in
  let off = Image.emit_list img ~off [ Insn.Dec_rcx ] in
  let disp = loop_start - (off + 2) in
  let off = Image.emit_list img ~off [ Insn.Jnz_rel8 disp ] in
  ignore (Image.emit img ~off Insn.Hlt);
  let m = Machine.create img ~entry:0 in
  (match Machine.run ~fuel:100 m with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "did not halt");
  (* 1 mov + 3 x (dec + jnz) + hlt = 8 steps. *)
  Alcotest.(check int) "step count" 8 (Machine.steps m)

let suites =
  [
    ( "isa.loops",
      [
        Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "loop executes n times" `Quick test_loop_executes_n_times;
        Alcotest.test_case "multi-wrapper order" `Quick test_loop_multi_wrapper_order;
        Alcotest.test_case "abom patch-once/run-many" `Quick test_loop_with_abom;
        Alcotest.test_case "trace equivalence" `Quick
          test_loop_equivalence_with_unpatched;
        Alcotest.test_case "validation" `Quick test_loop_validation;
        Alcotest.test_case "dec/jnz semantics" `Quick test_dec_jnz_semantics;
      ] );
  ]
