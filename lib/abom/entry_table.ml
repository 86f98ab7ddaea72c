let base = 0xffffffffff600000L
let dynamic_address = 0xffffffffff600c08L
let max_syscalls = 384 (* table slots below the dynamic entry at 0xc08 *)

type t = {
  mutable registered : int list;
  mutable answers : Xc_isa.Machine.entry option array;
}

let create () = { registered = []; answers = [||] }

let address_of t sysno =
  if sysno < 0 || sysno >= max_syscalls then
    invalid_arg "Entry_table.address_of: syscall number out of range";
  if not (List.mem sysno t.registered) then t.registered <- sysno :: t.registered;
  Int64.add base (Int64.of_int (8 * sysno))

(* One shared answer per slot, so a patched call allocates only on its
   slot's first lookup.  The slots themselves come with the table's
   first lookup: a table no call goes through costs nothing. *)
let fixed_answer t n =
  if Array.length t.answers = 0 then t.answers <- Array.make max_syscalls None;
  match t.answers.(n) with
  | Some _ as answer -> answer
  | None ->
      let answer = Some (Xc_isa.Machine.Fixed n) in
      t.answers.(n) <- answer;
      answer

let lookup t addr : Xc_isa.Machine.entry option =
  if Int64.equal addr dynamic_address then Some Dynamic
  else begin
    let off = Int64.sub addr base in
    if Int64.compare off 0L >= 0
       && Int64.compare off (Int64.of_int (8 * max_syscalls)) < 0
       && Int64.rem off 8L = 0L
    then fixed_answer t (Int64.to_int (Int64.div off 8L))
    else None
  end

let registered t = List.sort compare t.registered
