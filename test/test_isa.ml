(* Tests for the x86-64 subset: codec round trips, builder layout, and
   the interpreter's semantics. *)

open Xc_isa

let insn = Alcotest.testable Insn.pp ( = )

(* ---------------- Codec ---------------- *)

let sample_insns : Insn.t list =
  [
    Mov_eax_imm32 0;
    Mov_eax_imm32 0xe7;
    Mov_rax_imm32 1;
    Mov_rax_imm32 0x12345;
    Mov_rax_rsp8 8;
    Mov_rsp8_rax 16;
    Push_rax;
    Pop_rax;
    Push_rbp;
    Pop_rbp;
    Mov_rbp_rsp;
    Sub_rsp_imm8 8;
    Add_rsp_imm8 24;
    Syscall;
    Call_abs 0xffffffffff600008L;
    Call_rel32 1234;
    Call_rel32 (-1234);
    Jmp_rel8 (-9);
    Jmp_rel8 7;
    Jmp_rel32 100000;
    Jmp_rel32 (-5);
    Ret;
    Nop;
    Nop2;
    Hlt;
  ]

let test_roundtrip () =
  List.iter
    (fun i ->
      let buf = Codec.encode i in
      Alcotest.(check int) "encoded length" (Insn.length i) (Bytes.length buf);
      let decoded, len = Codec.decode buf 0 in
      Alcotest.check insn (Format.asprintf "%a" Insn.pp i) i decoded;
      Alcotest.(check int) "decoded length" (Insn.length i) len)
    sample_insns

let test_exact_bytes () =
  (* The encodings ABOM depends on, byte for byte (Figure 2). *)
  let hex buf = String.concat " " (List.init (Bytes.length buf) (fun i ->
      Printf.sprintf "%02x" (Bytes.get_uint8 buf i))) in
  Alcotest.(check string) "mov eax" "b8 00 00 00 00"
    (hex (Codec.encode (Mov_eax_imm32 0)));
  Alcotest.(check string) "mov rax" "48 c7 c0 0f 00 00 00"
    (hex (Codec.encode (Mov_rax_imm32 0xf)));
  Alcotest.(check string) "go mov" "48 8b 44 24 08"
    (hex (Codec.encode (Mov_rax_rsp8 8)));
  Alcotest.(check string) "syscall" "0f 05" (hex (Codec.encode Syscall));
  (* The 7-byte replacement of the paper: callq *0xffffffffff600008;
     its last two bytes are the 0x60 0xff that trap on a stray jump. *)
  Alcotest.(check string) "call abs" "ff 14 25 08 00 60 ff"
    (hex (Codec.encode (Call_abs 0xffffffffff600008L)));
  Alcotest.(check string) "jmp -9 (phase 2)" "eb f7"
    (hex (Codec.encode (Jmp_rel8 (-9))))

let test_invalid_decode () =
  let buf = Bytes.of_string "\x60" in
  let decoded, len = Codec.decode buf 0 in
  Alcotest.check insn "0x60 invalid" (Invalid 0x60) decoded;
  Alcotest.(check int) "length 1" 1 len

let test_truncated_decode () =
  (* A b8 with fewer than 4 immediate bytes must not read out of bounds. *)
  let buf = Bytes.of_string "\xb8\x01" in
  let decoded, _ = Codec.decode buf 0 in
  Alcotest.check insn "truncated mov" (Invalid 0xb8) decoded

let test_decode_all () =
  let prog = [ Insn.Mov_eax_imm32 3; Syscall; Ret ] in
  let buf = Bytes.create 8 in
  let off = List.fold_left (fun off i -> off + Codec.encode_into buf off i) 0 prog in
  Alcotest.(check int) "8 bytes" 8 off;
  let decoded = Codec.decode_all buf in
  Alcotest.(check int) "3 insns" 3 (List.length decoded);
  Alcotest.(check (list int)) "offsets" [ 0; 5; 7 ] (List.map fst decoded)

let codec_props =
  let insn_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Insn.Mov_eax_imm32 n) (int_range 0 400);
          map (fun n -> Insn.Mov_rax_imm32 n) (int_range 0 400);
          return (Insn.Mov_rax_rsp8 8);
          return Insn.Syscall;
          map (fun d -> Insn.Jmp_rel8 d) (int_range (-128) 127);
          map (fun d -> Insn.Call_rel32 d) (int_range (-100000) 100000);
          return Insn.Ret;
          return Insn.Nop;
          return Insn.Nop2;
          return Insn.Push_rax;
          map (fun a -> Insn.Call_abs (Int64.add 0xffffffffff600000L (Int64.of_int (8 * a))))
            (int_range 0 300);
        ])
  in
  [
    QCheck.Test.make ~name:"encode/decode roundtrip" ~count:1000
      (QCheck.make insn_gen) (fun i ->
        let buf = Codec.encode i in
        let decoded, len = Codec.decode buf 0 in
        i = decoded && len = Insn.length i);
  ]

(* ---------------- Builder ---------------- *)

let test_builder_layout () =
  let prog =
    Builder.build
      [ (Builder.Glibc_small, 0); (Builder.Glibc_wide, 1); (Builder.Go_stack, 39) ]
  in
  Alcotest.(check int) "3 sites" 3 (List.length prog.sites);
  List.iter
    (fun (s : Builder.site) ->
      (* The recorded syscall offset must decode as a syscall. *)
      match Image.insn_at prog.image s.syscall_off with
      | Insn.Syscall, 2 -> ()
      | other, _ ->
          Alcotest.failf "expected syscall at %d, got %s" s.syscall_off
            (Format.asprintf "%a" Insn.pp other))
    prog.sites;
  (* 16-byte function alignment, as a linker would emit. *)
  List.iter
    (fun (s : Builder.site) ->
      Alcotest.(check int) "aligned wrapper" 0 (s.wrapper_off mod 16))
    prog.sites

let test_builder_symbols () =
  let prog = Builder.build [ (Builder.Glibc_small, 0) ] in
  Alcotest.(check bool) "main symbol" true
    (Option.is_some (Image.find_symbol prog.image "main"));
  Alcotest.(check bool) "wrapper symbol" true
    (Option.is_some (Image.find_symbol prog.image "__wrapper_0"))

let test_builder_styles_shapes () =
  let check_style style expected_before =
    let prog = Builder.build [ (style, 42) ] in
    let site = List.hd prog.sites in
    let before, _ = Image.insn_at prog.image site.wrapper_off in
    Alcotest.check insn (Builder.style_to_string style) expected_before before
  in
  check_style Builder.Glibc_small (Mov_eax_imm32 42);
  check_style Builder.Glibc_wide (Mov_rax_imm32 42);
  check_style Builder.Go_stack (Mov_rax_rsp8 8);
  check_style Builder.Cancellable (Mov_eax_imm32 42);
  check_style Builder.Exotic (Mov_eax_imm32 42)

(* ---------------- Image ---------------- *)

let test_image_protection () =
  let img = Image.create ~size:8192 () in
  Alcotest.(check int) "2 pages" 2 (Image.page_count img);
  (match Image.write img ~off:0 (Bytes.of_string "ab") ~wp_override:false with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "write to RO page must fail");
  (match Image.write img ~off:0 (Bytes.of_string "ab") ~wp_override:true with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "page dirty after override" true (Image.page_dirty img ~page:0);
  Alcotest.(check bool) "other page clean" false (Image.page_dirty img ~page:1)

let test_image_writable_page () =
  let img = Image.create ~size:4096 () in
  Image.set_page_writable img ~page:0 true;
  (match Image.write img ~off:10 (Bytes.of_string "xy") ~wp_override:false with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "writable page stays clean" false
    (Image.page_dirty img ~page:0)

let test_image_bounds () =
  let img = Image.create ~size:16 () in
  (match Image.write img ~off:10 (Bytes.create 10) ~wp_override:true with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-bounds write must fail");
  (* A zero-length write in bounds touches no page, read-only or not,
     wherever it starts; out of bounds it still fails. *)
  let img = Image.create ~size:8192 () in
  List.iter
    (fun wp_override ->
      List.iter
        (fun off ->
          match Image.write img ~off Bytes.empty ~wp_override with
          | Ok () -> ()
          | Error e -> Alcotest.failf "empty write at %d: %s" off e)
        [ 0; 4096; 5000; 8192 ];
      List.iter
        (fun off ->
          match Image.write img ~off Bytes.empty ~wp_override with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "empty write at %d must fail" off)
        [ -1; 8193 ])
    [ false; true ];
  Alcotest.(check (list int)) "no page dirtied" [] (Image.dirty_pages img)

(* The decode cache stays coherent with the bytes: random writes and
   emits in two 24-byte windows, one straddling a page boundary,
   interleaved with reads of every window offset and with copies.
   Every read, and at the end every offset of every image the case
   made, must decode as the bytes do. *)
let image_cache_props =
  let size = Image.page_size + 12 in
  let window = List.init 24 Fun.id @ List.init 24 (fun i -> Image.page_size - 12 + i) in
  (* Bytes that start or continue the modelled encodings, so stores
     often change multi-byte decodes. *)
  let byte_gen =
    QCheck.Gen.oneofl
      [ 0x00; 0x05; 0x08; 0x0f; 0x14; 0x24; 0x25; 0x44; 0x48; 0x50; 0x58;
        0x75; 0x83; 0x89; 0x8b; 0x90; 0xb8; 0xc0; 0xc1; 0xc3; 0xc7; 0xc9;
        0xe5; 0xe8; 0xe9; 0xeb; 0xec; 0xf4; 0xff ]
  in
  let insn_gen =
    QCheck.Gen.oneofl
      Insn.
        [ Mov_eax_imm32 0xe7; Mov_rax_imm32 15; Mov_rax_rsp8 8; Syscall;
          Call_abs 0xffffffffff600008L; Jmp_rel8 (-9); Nop; Ret; Dec_rcx ]
  in
  let op_gen =
    QCheck.Gen.(
      let off_gen = oneofl window in
      frequency
        [
          ( 3,
            map2
              (fun off s -> `Write (off, Bytes.of_string s))
              off_gen
              (string_size ~gen:(map Char.chr byte_gen) (int_range 0 9)) );
          (2, map2 (fun off i -> `Emit (off, i)) off_gen insn_gen);
          (3, return `Read);
        ])
  in
  let print_op = function
    | `Write (off, b) -> Printf.sprintf "write %d (%d bytes)" off (Bytes.length b)
    | `Emit (off, i) -> Printf.sprintf "emit %d %s" off (Format.asprintf "%a" Insn.pp i)
    | `Read -> "read"
  in
  let coherent img off = Image.insn_at img off = Codec.decode (Image.code img) off in
  [
    QCheck.Test.make ~name:"decode cache coherent" ~count:300
      (QCheck.make ~print:QCheck.Print.(list print_op)
         QCheck.Gen.(list_size (int_range 0 60) op_gen))
      (fun ops ->
        let img = Image.create ~size () in
        let reads_ok =
          List.for_all
            (function
              | `Write (off, b) ->
                  ignore (Image.write img ~off b ~wp_override:true);
                  true
              | `Emit (off, i) ->
                  if off + Insn.length i <= size then ignore (Image.emit img ~off i);
                  true
              | `Read -> List.for_all (coherent img) window)
            ops
        in
        let rec coherent_from img off =
          off = size || (coherent img off && coherent_from img (off + 1))
        in
        reads_ok && coherent_from img 0);
  ]

let test_image_addresses () =
  let img = Image.create ~base:0x400000L ~size:4096 () in
  Alcotest.(check int64) "addr of 16" 0x400010L (Image.addr_of_offset img 16)

(* ---------------- Machine ---------------- *)

let test_machine_runs_program () =
  let prog =
    Builder.build
      [ (Builder.Glibc_small, 0); (Builder.Glibc_wide, 1); (Builder.Go_stack, 39) ]
  in
  let m = Machine.create prog.image ~entry:prog.entry in
  (match Machine.run m with
  | Machine.Halted -> ()
  | Fuel_exhausted -> Alcotest.fail "fuel exhausted"
  | Fault msg -> Alcotest.fail msg);
  Alcotest.(check (list int)) "syscall trace" [ 0; 1; 39 ] (Machine.syscall_numbers m);
  List.iter
    (fun (e : Machine.event) ->
      Alcotest.(check bool) "all via trap" true (e.kind = `Trap))
    (Machine.events m)

let test_machine_go_stack_argument () =
  (* The Go-style wrapper must read the syscall number the caller pushed. *)
  let prog = Builder.build [ (Builder.Go_stack, 231) ] in
  let m = Machine.create prog.image ~entry:prog.entry in
  ignore (Machine.run m);
  Alcotest.(check (list int)) "stack-passed sysno" [ 231 ] (Machine.syscall_numbers m)

let test_machine_reset_keeps_events () =
  let prog = Builder.build [ (Builder.Glibc_small, 7) ] in
  let m = Machine.create prog.image ~entry:prog.entry in
  ignore (Machine.run m);
  Machine.reset m ~entry:prog.entry;
  ignore (Machine.run m);
  Alcotest.(check (list int)) "two runs accumulate" [ 7; 7 ] (Machine.syscall_numbers m);
  Machine.clear_events m;
  Alcotest.(check (list int)) "cleared" [] (Machine.syscall_numbers m)

let test_machine_fault_unmapped_call () =
  let img = Image.create ~size:64 () in
  ignore (Image.emit img ~off:0 (Call_abs 0xdeadbeefL));
  let m = Machine.create img ~entry:0 in
  match Machine.run m with
  | Fault _ -> ()
  | _ -> Alcotest.fail "expected fault on unmapped call target"

let test_machine_fault_invalid_opcode () =
  let img = Image.create ~size:64 () in
  ignore (Image.emit img ~off:0 (Invalid 0x61));
  let m = Machine.create img ~entry:0 in
  match Machine.run m with
  | Fault _ -> ()
  | _ -> Alcotest.fail "expected invalid-opcode fault"

let test_machine_fuel () =
  let img = Image.create ~size:64 () in
  (* Infinite loop: jmp -2. *)
  ignore (Image.emit img ~off:0 (Jmp_rel8 (-2)));
  let m = Machine.create img ~entry:0 in
  match Machine.run ~fuel:100 m with
  | Fuel_exhausted -> Alcotest.(check int) "steps counted" 100 (Machine.steps m)
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* Each value survives a push, a pop, a store and a load; the 32-bit
   edges check zero- against sign-extension through the int registers
   and the stack's int64 slots. *)
let test_machine_stack_ops () =
  let check (load : Insn.t) expected =
    let img = Image.create ~size:64 () in
    let insns =
      [
        load;
        Insn.Push_rax;
        Mov_eax_imm32 0;
        Pop_rax;
        Mov_rsp8_rax 8;
        Mov_eax_imm32 0;
        Mov_rax_rsp8 8;
        Hlt;
      ]
    in
    ignore (Image.emit_list img ~off:0 insns);
    let m = Machine.create img ~entry:0 in
    (match Machine.run m with
    | Halted -> ()
    | Fault msg -> Alcotest.fail msg
    | Fuel_exhausted -> Alcotest.fail "fuel");
    Alcotest.(check int64)
      (Format.asprintf "%a" Insn.pp load ^ ": push/pop/store/load preserve rax")
      expected (Machine.rax m)
  in
  check (Mov_eax_imm32 77) 77L;
  check (Mov_eax_imm32 0xffffffff) 0xffffffffL;
  check (Mov_rax_imm32 0xffffffff) (-1L);
  check (Mov_rax_imm32 0x80000000) (-0x80000000L)

(* With telemetry on, one run adds exactly its retired instructions to
   isa/instructions. *)
let test_machine_instruction_counter () =
  let module M = Xc_sim.Metrics in
  let prog = Builder.build [ (Builder.Glibc_small, 0); (Builder.Go_stack, 39) ] in
  let m = Machine.create prog.image ~entry:prog.entry in
  M.enable ();
  Fun.protect ~finally:M.disable (fun () ->
      let (), tel = M.capture (fun () -> ignore (Machine.run m)) in
      Alcotest.(check bool) "ran" true (Machine.steps m > 0);
      Alcotest.(check (float 0.)) "counter gains the steps"
        (float_of_int (Machine.steps m))
        (Option.value ~default:0.
           (List.assoc_opt "isa/instructions" tel.M.counters)))

(* A warm run of a looping program: every offset is decoded, so only
   the syscall log allocates (an event record and its cons cell per
   syscall). *)
let test_machine_words () =
  let prog =
    Builder.build ~loop_iterations:200
      [ (Builder.Glibc_small, 0); (Builder.Glibc_wide, 1); (Builder.Go_stack, 39) ]
  in
  let m = Machine.create prog.image ~entry:prog.entry in
  ignore (Machine.run m);
  Machine.reset m ~entry:prog.entry;
  Test_sim.check_words_budget ~budget:2 (fun () -> Machine.run m)

let suites =
  [
    ( "isa.codec",
      [
        Alcotest.test_case "roundtrip samples" `Quick test_roundtrip;
        Alcotest.test_case "exact bytes (Figure 2)" `Quick test_exact_bytes;
        Alcotest.test_case "invalid byte" `Quick test_invalid_decode;
        Alcotest.test_case "truncated" `Quick test_truncated_decode;
        Alcotest.test_case "decode_all" `Quick test_decode_all;
      ]
      @ List.map QCheck_alcotest.to_alcotest codec_props );
    ( "isa.builder",
      [
        Alcotest.test_case "layout" `Quick test_builder_layout;
        Alcotest.test_case "symbols" `Quick test_builder_symbols;
        Alcotest.test_case "wrapper shapes" `Quick test_builder_styles_shapes;
      ] );
    ( "isa.image",
      [
        Alcotest.test_case "write protection" `Quick test_image_protection;
        Alcotest.test_case "writable page" `Quick test_image_writable_page;
        Alcotest.test_case "bounds" `Quick test_image_bounds;
        Alcotest.test_case "addresses" `Quick test_image_addresses;
      ]
      @ List.map QCheck_alcotest.to_alcotest image_cache_props );
    ( "isa.machine",
      [
        Alcotest.test_case "runs program" `Quick test_machine_runs_program;
        Alcotest.test_case "go stack argument" `Quick test_machine_go_stack_argument;
        Alcotest.test_case "reset keeps events" `Quick test_machine_reset_keeps_events;
        Alcotest.test_case "fault unmapped call" `Quick test_machine_fault_unmapped_call;
        Alcotest.test_case "fault invalid opcode" `Quick test_machine_fault_invalid_opcode;
        Alcotest.test_case "fuel" `Quick test_machine_fuel;
        Alcotest.test_case "stack ops" `Quick test_machine_stack_ops;
        Alcotest.test_case "instructions counter" `Quick test_machine_instruction_counter;
        Alcotest.test_case "words per instruction" `Quick test_machine_words;
      ] );
  ]
