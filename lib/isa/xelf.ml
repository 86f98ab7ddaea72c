let magic = "XELF1"

(* Layout:
   magic(5) | base(8) | code_len(4) | pages(4) |
   code bytes | page flags (1 byte each: bit0 writable, bit1 dirty) |
   nsyms(4) | nsyms * (name_len(2) name offset(4) size(4)) *)

let put_u32 buf v =
  Buffer.add_uint8 buf (v land 0xff);
  Buffer.add_uint8 buf ((v lsr 8) land 0xff);
  Buffer.add_uint8 buf ((v lsr 16) land 0xff);
  Buffer.add_uint8 buf ((v lsr 24) land 0xff)

let put_u16 buf v =
  Buffer.add_uint8 buf (v land 0xff);
  Buffer.add_uint8 buf ((v lsr 8) land 0xff)

let put_u64 buf v =
  for i = 0 to 7 do
    Buffer.add_uint8 buf (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

let serialize (img : Image.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  put_u64 buf (Image.base img);
  put_u32 buf (Image.size img);
  put_u32 buf (Image.page_count img);
  Buffer.add_bytes buf (Image.code img);
  for p = 0 to Image.page_count img - 1 do
    let flags =
      (if Image.page_writable img ~page:p then 1 else 0)
      lor if Image.page_dirty img ~page:p then 2 else 0
    in
    Buffer.add_uint8 buf flags
  done;
  let symbols = Image.symbols img in
  put_u32 buf (List.length symbols);
  List.iter
    (fun (s : Image.symbol) ->
      put_u16 buf (String.length s.name);
      Buffer.add_string buf s.name;
      put_u32 buf s.offset;
      put_u32 buf s.size)
    symbols;
  Buffer.to_bytes buf

exception Bad of string

let deserialize blob =
  let pos = ref 0 in
  let need n =
    if !pos + n > Bytes.length blob then raise (Bad "truncated blob")
  in
  let u8 () =
    need 1;
    let v = Bytes.get_uint8 blob !pos in
    incr pos;
    v
  in
  let u16 () =
    let a = u8 () in
    a lor (u8 () lsl 8)
  in
  let u32 () =
    let a = u16 () in
    a lor (u16 () lsl 16)
  in
  let u64 () =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 ())) (8 * i))
    done;
    !v
  in
  let str n =
    need n;
    let s = Bytes.sub_string blob !pos n in
    pos := !pos + n;
    s
  in
  try
    if str (String.length magic) <> magic then Error "bad magic"
    else begin
      let base = u64 () in
      let code_len = u32 () in
      let pages = u32 () in
      if code_len < 0 || code_len > 64 * 1024 * 1024 then raise (Bad "absurd code size");
      let expected_pages =
        Stdlib.max 1 ((code_len + Image.page_size - 1) / Image.page_size)
      in
      if pages <> expected_pages then raise (Bad "inconsistent page count");
      let code = Bytes.of_string (str code_len) in
      let img = Image.create ~base ~size:code_len () in
      (* Loading is not patching, so the pages must come up clean: write
         through writable pages, then apply the file's protection. *)
      for p = 0 to pages - 1 do
        Image.set_page_writable img ~page:p true
      done;
      (match Image.write img ~off:0 code ~wp_override:false with
      | Ok () -> ()
      | Error msg -> raise (Bad msg));
      for p = 0 to pages - 1 do
        let flags = u8 () in
        Image.set_page_writable img ~page:p (flags land 1 = 1)
        (* dirty flags are observational; loading starts clean *)
      done;
      let nsyms = u32 () in
      if nsyms < 0 || nsyms > 100_000 then raise (Bad "absurd symbol count");
      for _ = 1 to nsyms do
        let name = str (u16 ()) in
        let offset = u32 () in
        let size = u32 () in
        Image.add_symbol img ~name ~offset ~size
      done;
      Ok img
    end
  with Bad msg -> Error msg

let save img ~path =
  let oc = open_out_bin path in
  output_bytes oc (serialize img);
  close_out oc

let load ~path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let blob = really_input_string ic len in
    close_in ic;
    deserialize (Bytes.of_string blob)
  with Sys_error e -> Error e
