type symbol = { name : string; offset : int; size : int }

let page_size = 4096

type t = {
  code : Bytes.t;
  base : int64;
  mutable symbols : symbol list;
  writable : bool array;
  dirty : bool array;
  decoded : (Insn.t * int) array array;
      (* per page, [||] until the page's first decode *)
}

(* An empty decode-cache slot: no decode has length 0. *)
let unknown = (Insn.Invalid 0, 0)

let create ?(base = 0x400000L) ~size () =
  let pages = Stdlib.max 1 ((size + page_size - 1) / page_size) in
  {
    code = Bytes.make size '\x00';
    base;
    symbols = [];
    writable = Array.make pages false;
    dirty = Array.make pages false;
    decoded = Array.make pages [||];
  }

let size t = Bytes.length t.code
let base t = t.base
let code t = t.code
let addr_of_offset t off = Int64.add t.base (Int64.of_int off)
let page_count t = Array.length t.writable
let set_page_writable t ~page v = t.writable.(page) <- v
let page_writable t ~page = t.writable.(page)
let page_dirty t ~page = t.dirty.(page)

let dirty_pages t =
  let acc = ref [] in
  for i = Array.length t.dirty - 1 downto 0 do
    if t.dirty.(i) then acc := i :: !acc
  done;
  !acc

(* An instruction is at most 7 bytes, so a store to [off, off + len)
   changes the decode at any offset from [off - 6] on. *)
let invalidate t ~off ~len =
  for o = Stdlib.max 0 (off - 6) to Stdlib.min (size t) (off + len) - 1 do
    let slots = t.decoded.(o / page_size) in
    if Array.length slots > 0 then slots.(o mod page_size) <- unknown
  done

let write t ~off buf ~wp_override =
  let len = Bytes.length buf in
  if off < 0 || off + len > size t then Error "write out of bounds"
  else if len = 0 then Ok ()
  else begin
    let first_page = off / page_size and last_page = (off + len - 1) / page_size in
    let blocked = ref false in
    for p = first_page to last_page do
      if (not t.writable.(p)) && not wp_override then blocked := true
    done;
    if !blocked then Error "write to read-only page"
    else begin
      for p = first_page to last_page do
        if not t.writable.(p) then t.dirty.(p) <- true
      done;
      Bytes.blit buf 0 t.code off len;
      invalidate t ~off ~len;
      Ok ()
    end
  end

let emit t ~off insn =
  let len = Codec.encode_into t.code off insn in
  invalidate t ~off ~len;
  len

let emit_list t ~off insns =
  List.fold_left (fun off insn -> off + emit t ~off insn) off insns

let insn_at t off =
  if off < 0 || off >= size t then Codec.decode t.code off
  else begin
    let page = off / page_size in
    let slots =
      match t.decoded.(page) with
      | [||] ->
          let slots =
            Array.make (Stdlib.min page_size (size t - (page * page_size))) unknown
          in
          t.decoded.(page) <- slots;
          slots
      | slots -> slots
    in
    let cached = slots.(off mod page_size) in
    if cached != unknown then cached
    else begin
      let decoded = Codec.decode t.code off in
      slots.(off mod page_size) <- decoded;
      decoded
    end
  end

let add_symbol t ~name ~offset ~size = t.symbols <- { name; offset; size } :: t.symbols
let find_symbol t name = List.find_opt (fun s -> s.name = name) t.symbols
let symbols t = List.rev t.symbols

let disassemble_range t ~off ~len =
  let sub = Bytes.sub t.code off len in
  Codec.disassemble ~base:(addr_of_offset t off) sub
