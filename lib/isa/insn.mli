(** The x86-64 subset modelled by the reproduction.

    ABOM (Section 4.4 of the paper) is a byte-level binary rewriter: it
    recognises the instruction pairs that system-call wrappers compile to
    and overwrites them in place.  To reproduce it faithfully we model the
    exact encodings involved:

    - [Mov_eax_imm32 n]  = [b8 imm32]           (5 bytes, glibc small sysno)
    - [Mov_rax_imm32 n]  = [48 c7 c0 imm32]     (7 bytes, glibc wide form)
    - [Mov_rax_rsp8 d]   = [48 8b 44 24 d8]     (5 bytes, Go runtime form)
    - [Syscall]          = [0f 05]              (2 bytes)
    - [Call_abs a]       = [ff 14 25 disp32]    (7 bytes, the replacement)
    - [Jmp_rel8 d]       = [eb rel8]            (2 bytes, 9-byte phase 2)

    plus enough ordinary instructions to build realistic function bodies
    (prologue/epilogue, calls, stack traffic).  Anything else decodes as
    [Invalid], which doubles as the invalid-opcode trap the paper relies on
    when control jumps into the middle of a patched call (the trailing
    [0x60 0xff] bytes). *)

type t =
  | Mov_eax_imm32 of int  (** [b8 imm32]; 5 bytes *)
  | Mov_rax_imm32 of int  (** [48 c7 c0 imm32]; 7 bytes *)
  | Mov_rax_rsp8 of int  (** [48 8b 44 24 disp8]: load rax from \[rsp+d\] *)
  | Mov_rsp8_rax of int  (** [48 89 44 24 disp8]: store rax to \[rsp+d\] *)
  | Push_rax  (** [50] *)
  | Pop_rax  (** [58] *)
  | Push_rbp  (** [55] *)
  | Pop_rbp  (** [5d] *)
  | Mov_rbp_rsp  (** [48 89 e5] *)
  | Sub_rsp_imm8 of int  (** [48 83 ec imm8] *)
  | Add_rsp_imm8 of int  (** [48 83 c4 imm8] *)
  | Syscall  (** [0f 05] *)
  | Call_abs of int64  (** [ff 14 25 disp32]: call through absolute address *)
  | Call_rel32 of int  (** [e8 rel32]: relative displacement from next insn *)
  | Jmp_rel8 of int  (** [eb rel8] *)
  | Jmp_rel32 of int  (** [e9 rel32] *)
  | Mov_rcx_imm32 of int  (** [48 c7 c1 imm32]: loop-counter setup *)
  | Dec_rcx  (** [48 ff c9]: decrement, setting ZF *)
  | Jnz_rel8 of int  (** [75 rel8]: branch while ZF is clear *)
  | Ret  (** [c3] *)
  | Nop  (** [90] *)
  | Nop2  (** [66 90] *)
  | Hlt  (** [f4]: used as the program-end sentinel *)
  | Invalid of int  (** one undecodable byte *)

val length : t -> int
(** Encoded length in bytes. *)

val pp : Format.formatter -> t -> unit
(** AT&T-flavoured disassembly, e.g. [callq *0xffffffffff600008]. *)
