type t =
  | Mov_eax_imm32 of int
  | Mov_rax_imm32 of int
  | Mov_rax_rsp8 of int
  | Mov_rsp8_rax of int
  | Push_rax
  | Pop_rax
  | Push_rbp
  | Pop_rbp
  | Mov_rbp_rsp
  | Sub_rsp_imm8 of int
  | Add_rsp_imm8 of int
  | Syscall
  | Call_abs of int64
  | Call_rel32 of int
  | Jmp_rel8 of int
  | Jmp_rel32 of int
  | Mov_rcx_imm32 of int
  | Dec_rcx
  | Jnz_rel8 of int
  | Ret
  | Nop
  | Nop2
  | Hlt
  | Invalid of int

let length = function
  | Mov_eax_imm32 _ -> 5
  | Mov_rax_imm32 _ -> 7
  | Mov_rax_rsp8 _ -> 5
  | Mov_rsp8_rax _ -> 5
  | Push_rax | Pop_rax | Push_rbp | Pop_rbp -> 1
  | Mov_rbp_rsp -> 3
  | Sub_rsp_imm8 _ | Add_rsp_imm8 _ -> 4
  | Syscall -> 2
  | Call_abs _ -> 7
  | Call_rel32 _ -> 5
  | Jmp_rel8 _ -> 2
  | Jmp_rel32 _ -> 5
  | Mov_rcx_imm32 _ -> 7
  | Dec_rcx -> 3
  | Jnz_rel8 _ -> 2
  | Ret -> 1
  | Nop -> 1
  | Nop2 -> 2
  | Hlt -> 1
  | Invalid _ -> 1

let pp fmt = function
  | Mov_eax_imm32 n -> Format.fprintf fmt "mov $0x%x,%%eax" n
  | Mov_rax_imm32 n -> Format.fprintf fmt "mov $0x%x,%%rax" n
  | Mov_rax_rsp8 d -> Format.fprintf fmt "mov 0x%x(%%rsp),%%rax" d
  | Mov_rsp8_rax d -> Format.fprintf fmt "mov %%rax,0x%x(%%rsp)" d
  | Push_rax -> Format.fprintf fmt "push %%rax"
  | Pop_rax -> Format.fprintf fmt "pop %%rax"
  | Push_rbp -> Format.fprintf fmt "push %%rbp"
  | Pop_rbp -> Format.fprintf fmt "pop %%rbp"
  | Mov_rbp_rsp -> Format.fprintf fmt "mov %%rsp,%%rbp"
  | Sub_rsp_imm8 n -> Format.fprintf fmt "sub $0x%x,%%rsp" n
  | Add_rsp_imm8 n -> Format.fprintf fmt "add $0x%x,%%rsp" n
  | Syscall -> Format.fprintf fmt "syscall"
  | Call_abs a -> Format.fprintf fmt "callq *0x%Lx" a
  | Call_rel32 d -> Format.fprintf fmt "callq .%+d" d
  | Jmp_rel8 d -> Format.fprintf fmt "jmp .%+d" d
  | Jmp_rel32 d -> Format.fprintf fmt "jmp .%+d" d
  | Mov_rcx_imm32 n -> Format.fprintf fmt "mov $0x%x,%%rcx" n
  | Dec_rcx -> Format.fprintf fmt "dec %%rcx"
  | Jnz_rel8 d -> Format.fprintf fmt "jnz .%+d" d
  | Ret -> Format.fprintf fmt "ret"
  | Nop -> Format.fprintf fmt "nop"
  | Nop2 -> Format.fprintf fmt "xchg %%ax,%%ax"
  | Hlt -> Format.fprintf fmt "hlt"
  | Invalid b -> Format.fprintf fmt "(bad 0x%02x)" b
