type style = Glibc_small | Glibc_wide | Go_stack | Cancellable | Exotic

let style_to_string = function
  | Glibc_small -> "glibc-small"
  | Glibc_wide -> "glibc-wide"
  | Go_stack -> "go-stack"
  | Cancellable -> "cancellable"
  | Exotic -> "exotic"

type site = {
  index : int;
  style : style;
  sysno : int;
  wrapper_off : int;
  syscall_off : int;
}

type program = { image : Image.t; entry : int; sites : site list }

(* Wrapper body instructions; returns (insns, index of syscall within list). *)
let wrapper_insns style sysno : Insn.t list * int =
  match style with
  | Glibc_small -> ([ Insn.Mov_eax_imm32 sysno; Syscall; Ret ], 1)
  | Glibc_wide -> ([ Insn.Mov_rax_imm32 sysno; Syscall; Ret ], 1)
  | Go_stack -> ([ Insn.Mov_rax_rsp8 0x8; Syscall; Ret ], 1)
  | Cancellable ->
      (* The mov is separated from the syscall by the cancellation check
         (modelled as a 2-byte nop), so no recognised pattern is adjacent. *)
      ([ Insn.Mov_eax_imm32 sysno; Nop2; Syscall; Ret ], 2)
  | Exotic ->
      (* A shape neither the online patcher nor the offline tool handles:
         the residual unpatchable fraction of Table 1. *)
      ([ Insn.Mov_eax_imm32 sysno; Nop; Nop2; Syscall; Ret ], 3)

let insns_length insns = List.fold_left (fun n i -> n + Insn.length i) 0 insns

(* [main] call sequence for one wrapper, given the displacement provider. *)
let call_insns style sysno ~target_rel : Insn.t list =
  match style with
  | Go_stack ->
      [
        Insn.Mov_rax_imm32 sysno;
        Push_rax;
        Call_rel32 target_rel;
        Add_rsp_imm8 8;
      ]
  | Glibc_small | Glibc_wide | Cancellable | Exotic ->
      [ Insn.Call_rel32 target_rel ]

let call_seq_length style =
  insns_length (call_insns style 0 ~target_rel:0)

let build ?loop_iterations wrappers =
  (* Layout: [main][pad][wrapper 0][pad][wrapper 1]... with 16-byte-aligned
     function starts, like a real linker would produce.  With
     [loop_iterations], main wraps the call sequence in an rcx-counted
     loop (the call block must stay within jnz's rel8 reach). *)
  let align16 n = (n + 15) land lnot 15 in
  let calls_len =
    List.fold_left (fun n (style, _) -> n + call_seq_length style) 0 wrappers
  in
  let loop_prefix_len, loop_suffix_len =
    match loop_iterations with
    | None -> (0, 0)
    | Some n ->
        if n <= 0 then invalid_arg "Builder.build: loop_iterations must be positive";
        if calls_len + 5 > 127 then
          invalid_arg "Builder.build: loop body exceeds jnz rel8 reach";
        (Insn.length (Mov_rcx_imm32 0), Insn.length Dec_rcx + Insn.length (Jnz_rel8 0))
  in
  let main_len = loop_prefix_len + calls_len + loop_suffix_len + 1 (* + Hlt *) in
  let wrapper_offs, total =
    List.fold_left
      (fun (offs, off) (style, sysno) ->
        let off = align16 off in
        let insns, _ = wrapper_insns style sysno in
        (off :: offs, off + insns_length insns))
      ([], align16 main_len)
      wrappers
  in
  let wrapper_offs = Array.of_list (List.rev wrapper_offs) in
  let image = Image.create ~size:(align16 total + 64) () in
  (* Emit main. *)
  let entry = 0 in
  let off = ref entry in
  (match loop_iterations with
  | Some n -> off := !off + Image.emit image ~off:!off (Mov_rcx_imm32 n)
  | None -> ());
  let loop_start = !off in
  List.iteri
    (fun i (style, sysno) ->
      let seq_len = call_seq_length style in
      (* The call instruction is the last 5 bytes of the sequence except
         for Go_stack where it is followed by add rsp. *)
      let call_off =
        match style with
        | Go_stack -> !off + Insn.length (Mov_rax_imm32 0) + Insn.length Push_rax
        | Glibc_small | Glibc_wide | Cancellable | Exotic -> !off
      in
      let target_rel = wrapper_offs.(i) - (call_off + 5) in
      let insns = call_insns style sysno ~target_rel in
      ignore (Image.emit_list image ~off:!off insns);
      off := !off + seq_len)
    wrappers;
  (match loop_iterations with
  | Some _ ->
      off := !off + Image.emit image ~off:!off Insn.Dec_rcx;
      let disp = loop_start - (!off + 2) in
      off := !off + Image.emit image ~off:!off (Jnz_rel8 disp)
  | None -> ());
  ignore (Image.emit image ~off:!off Insn.Hlt);
  Image.add_symbol image ~name:"main" ~offset:entry ~size:main_len;
  (* Emit wrappers and record sites. *)
  let sites =
    List.mapi
      (fun i (style, sysno) ->
        let wrapper_off = wrapper_offs.(i) in
        let insns, sys_idx = wrapper_insns style sysno in
        ignore (Image.emit_list image ~off:wrapper_off insns);
        let rec nth_off off idx = function
          | [] -> off
          | insn :: rest ->
              if idx = 0 then off else nth_off (off + Insn.length insn) (idx - 1) rest
        in
        let syscall_off = nth_off wrapper_off sys_idx insns in
        Image.add_symbol image
          ~name:(Printf.sprintf "__wrapper_%d" i)
          ~offset:wrapper_off ~size:(insns_length insns);
        { index = i; style; sysno; wrapper_off; syscall_off })
      wrappers
  in
  { image; entry; sites }
