type entry = Fixed of int | Dynamic
type event = { kind : [ `Trap | `Fast ]; sysno : int; site : int }
type exit_reason = Halted | Fuel_exhausted | Fault of string

(* Registers are ints, so writing one never boxes; they widen to int64
   only at the stack's bytes.  Every value starts as an imm32, a stack
   offset or a decrement and fits in 63 bits, and a stack slot holds
   what a register stored.  Only a load straddling two slots can read a
   wider pattern, which keeps its low 63 bits. *)
type t = {
  image : Image.t;
  mutable rip : int;
  mutable rax : int;
  mutable rcx : int;
  mutable zf : bool;
  mutable rbp : int;
  stack : Bytes.t;
  mutable rsp : int;
  stack_top : int;
  mutable events : event list; (* reversed *)
  mutable traps : int;
  mutable fasts : int;
  mutable steps : int;
  config : config;
}

and config = {
  vsyscall_lookup : int64 -> entry option;
  on_syscall_trap : (t -> sysno:int -> syscall_off:int -> unit) option;
  libos_skip_check : bool;
  invalid_opcode_fixup : bool;
}

let default_config =
  {
    vsyscall_lookup = (fun _ -> None);
    on_syscall_trap = None;
    libos_skip_check = false;
    invalid_opcode_fixup = false;
  }

let xcontainer_config ?on_syscall_trap ~lookup () =
  {
    vsyscall_lookup = lookup;
    on_syscall_trap;
    libos_skip_check = true;
    invalid_opcode_fixup = true;
  }

let stack_size = 65536

let create ?(config = default_config) image ~entry =
  let stack_top = stack_size - 64 in
  {
    image;
    rip = entry;
    rax = 0;
    rcx = 0;
    zf = false;
    rbp = 0;
    stack = Bytes.make stack_size '\x00';
    rsp = stack_top;
    stack_top;
    events = [];
    traps = 0;
    fasts = 0;
    steps = 0;
    config;
  }

let image t = t.image
let rax t = Int64.of_int t.rax

let reset t ~entry =
  t.rip <- entry;
  t.rax <- 0;
  t.rcx <- 0;
  t.zf <- false;
  t.rbp <- 0;
  t.rsp <- t.stack_top

let events t = List.rev t.events

let clear_events t =
  t.events <- [];
  t.traps <- 0;
  t.fasts <- 0

let syscall_count t = function `Trap -> t.traps | `Fast -> t.fasts
let syscall_numbers t = List.rev_map (fun e -> e.sysno) t.events
let steps t = t.steps

exception Fault_exn of string

let load64 t off =
  if off < 0 || off + 8 > stack_size then raise (Fault_exn "stack load out of bounds");
  Int64.to_int (Bytes.get_int64_le t.stack off)

let store64 t off v =
  if off < 0 || off + 8 > stack_size then
    raise (Fault_exn "stack store out of bounds");
  Bytes.set_int64_le t.stack off (Int64.of_int v)

let push t v =
  t.rsp <- t.rsp - 8;
  store64 t t.rsp v

let pop t =
  let v = load64 t t.rsp in
  t.rsp <- t.rsp + 8;
  v

let record t kind sysno site =
  t.events <- { kind; sysno; site } :: t.events;
  match kind with `Trap -> t.traps <- t.traps + 1 | `Fast -> t.fasts <- t.fasts + 1

(* Signals: a delivered signal's frame holds the interrupted rip, under
   the restorer address the handler's ret falls into (__restore_rt);
   rt_sigreturn resumes the interrupted context from it. *)
let sigreturn_sysno = 15

let do_sigreturn t = t.rip <- pop t

(* After a phase-1 9-byte patch the original [syscall] still follows the
   new call; after phase 2 a [jmp -9] follows it.  The X-LibOS syscall
   handler recognises both on the return address and skips them. *)
let skip_trailing t ret_off =
  match Image.insn_at t.image ret_off with
  | Insn.Syscall, len -> ret_off + len
  | Insn.Jmp_rel8 d, len when ret_off + len + d < ret_off -> ret_off + len
  | _ -> ret_off

let exec_vsyscall t entry next_rip =
  (* The call pushed [next_rip]; figure out the syscall number, record the
     fast-path event, run the skip check, then return. *)
  push t next_rip;
  let sysno =
    match entry with
    | Fixed n -> n
    | Dynamic ->
        (* Stack layout at this point: [rsp]=inner ret, [rsp+8]=caller ret,
           [rsp+16]=syscall number pushed by the caller (Go convention). *)
        load64 t (t.rsp + 16)
  in
  t.rax <- sysno;
  record t `Fast sysno (next_rip - 7);
  if sysno = sigreturn_sysno then begin
    (* A patched __restore_rt: discard the call's own return address and
       resume the interrupted context from the signal frame. *)
    ignore (pop t);
    do_sigreturn t
  end
  else begin
    let ret = pop t in
    let ret = if t.config.libos_skip_check then skip_trailing t ret else ret in
    t.rip <- ret
  end

let step t : exit_reason option =
  if t.rip < 0 || t.rip >= Image.size t.image then Some (Fault "rip out of bounds")
  else begin
    let insn, len = Image.insn_at t.image t.rip in
    let next = t.rip + len in
    t.steps <- t.steps + 1;
    match insn with
    | Insn.Mov_eax_imm32 n ->
        (* 32-bit destination zero-extends. *)
        t.rax <- n land 0xffffffff;
        t.rip <- next;
        None
    | Mov_rax_imm32 n ->
        t.rax <- (if n land 0x80000000 <> 0 then n - (1 lsl 32) else n);
        t.rip <- next;
        None
    | Mov_rax_rsp8 d ->
        t.rax <- load64 t (t.rsp + d);
        t.rip <- next;
        None
    | Mov_rsp8_rax d ->
        store64 t (t.rsp + d) t.rax;
        t.rip <- next;
        None
    | Push_rax ->
        push t t.rax;
        t.rip <- next;
        None
    | Pop_rax ->
        t.rax <- pop t;
        t.rip <- next;
        None
    | Push_rbp ->
        push t t.rbp;
        t.rip <- next;
        None
    | Pop_rbp ->
        t.rbp <- pop t;
        t.rip <- next;
        None
    | Mov_rbp_rsp ->
        t.rbp <- t.rsp;
        t.rip <- next;
        None
    | Sub_rsp_imm8 n ->
        t.rsp <- t.rsp - n;
        t.rip <- next;
        None
    | Add_rsp_imm8 n ->
        t.rsp <- t.rsp + n;
        t.rip <- next;
        None
    | Syscall ->
        let sysno = t.rax in
        let site = t.rip in
        record t `Trap sysno site;
        (match t.config.on_syscall_trap with
        | Some hook -> hook t ~sysno ~syscall_off:site
        | None -> ());
        if sysno = sigreturn_sysno then do_sigreturn t else t.rip <- next;
        None
    | Call_abs addr -> begin
        match t.config.vsyscall_lookup addr with
        | Some entry ->
            exec_vsyscall t entry next;
            None
        | None -> Some (Fault (Printf.sprintf "call to unmapped 0x%Lx" addr))
      end
    | Call_rel32 d ->
        push t next;
        t.rip <- next + d;
        None
    | Jmp_rel8 d ->
        t.rip <- next + d;
        None
    | Jmp_rel32 d ->
        t.rip <- next + d;
        None
    | Mov_rcx_imm32 n ->
        t.rcx <- (if n land 0x80000000 <> 0 then n - (1 lsl 32) else n);
        t.rip <- next;
        None
    | Dec_rcx ->
        t.rcx <- t.rcx - 1;
        t.zf <- t.rcx = 0;
        t.rip <- next;
        None
    | Jnz_rel8 d ->
        t.rip <- (if t.zf then next else next + d);
        None
    | Ret ->
        if t.rsp >= t.stack_top then Some Halted
        else begin
          t.rip <- pop t;
          None
        end
    | Nop | Nop2 ->
        t.rip <- next;
        None
    | Hlt -> Some Halted
    | Invalid b ->
        if t.config.invalid_opcode_fixup && (b = 0x60 || b = 0xff) then begin
          (* X-Kernel fixup: the program jumped into the last two bytes of
             a 7-byte replacement.  Verify and back rip up to the call. *)
          let call_off = t.rip - 5 in
          if call_off >= 0 then begin
            match Image.insn_at t.image call_off with
            | Insn.Call_abs _, _ ->
                if Xc_trace.Trace.enabled () then
                  Xc_trace.Trace.instant ~cat:"abom"
                    ~name:"invalid-opcode-fixup" ();
                t.rip <- call_off;
                None
            | _ -> Some (Fault (Printf.sprintf "invalid opcode 0x%02x" b))
          end
          else Some (Fault (Printf.sprintf "invalid opcode 0x%02x" b))
        end
        else Some (Fault (Printf.sprintf "invalid opcode 0x%02x" b))
  end

let step_once t = try step t with Fault_exn msg -> Some (Fault msg)

let rec run_steps t remaining =
  if remaining = 0 then Fuel_exhausted
  else match step t with Some reason -> reason | None -> run_steps t (remaining - 1)

let run ?(fuel = 1_000_000) t =
  let before = t.steps in
  let reason = try run_steps t fuel with Fault_exn msg -> Fault msg in
  (* Instruction steps are this machine's simulated events: credit them
     to the domain counter (the op count of perf/xcperf's isa-abom
     workload) and to the telemetry registry. *)
  let executed = t.steps - before in
  Xc_sim.Engine.add_domain_events executed;
  if Xc_sim.Metrics.on () then
    Xc_sim.Metrics.counter_add ~cat:"isa" ~name:"instructions"
      (float_of_int executed);
  reason
