(* Just enough JSON for the benchmark's own files: BENCHMARK.json and
   the one-object-per-line result records. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then (incr pos; ws ())
  in
  let expect c =
    ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do incr pos done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            let k = string () in
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then (incr pos; List [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; List (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kv -> (
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> raise (Error ("missing key " ^ k)))
  | _ -> raise (Error ("not an object looking up " ^ k))

let to_string = function Str s -> s | _ -> raise (Error "expected a string")
let to_float = function Num f -> f | _ -> raise (Error "expected a number")
let to_list = function List l -> l | _ -> raise (Error "expected a list")
let to_obj = function Obj kv -> kv | _ -> raise (Error "expected an object")

let rec print b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.bprintf b "%.0f" f
      else if Float.is_finite f then Printf.bprintf b "%.17g" f
      else raise (Error "non-finite number")
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | List l ->
      Buffer.add_char b '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; print b v) l;
      Buffer.add_char b ']'
  | Obj kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          print b (Str k);
          Buffer.add_char b ':';
          print b v)
        kv;
      Buffer.add_char b '}'

let to_line v =
  let b = Buffer.create 256 in
  print b v;
  Buffer.contents b
