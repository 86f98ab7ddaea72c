type align = Left | Right

type t = {
  title : string option;
  columns : (string * align) list;
  mutable rows : string list list; (* reversed *)
}

let create ?title columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun i (h, _) ->
        List.fold_left
          (fun w cells -> Stdlib.max w (String.length (List.nth cells i)))
          (String.length h) rows)
      t.columns
  in
  let buf = Buffer.create 1024 in
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let total_width =
    List.fold_left ( + ) 0 widths + (2 * (List.length widths - 1))
  in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (Stdlib.max total_width (String.length title)) '=');
      Buffer.add_char buf '\n'
  | None -> ());
  let emit_cells cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        let width = List.nth widths i in
        let align = snd (List.nth t.columns i) in
        Buffer.add_string buf (pad align width cell))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_cells headers;
  Buffer.add_string buf (String.make total_width '-');
  Buffer.add_char buf '\n';
  List.iter emit_cells rows;
  Buffer.contents buf

let print t = print_string (render t)

let to_csv t =
  let escape s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let buf = Buffer.create 1024 in
  let emit cells =
    Buffer.add_string buf (String.concat "," (List.map escape cells));
    Buffer.add_char buf '\n'
  in
  emit (List.map fst t.columns);
  List.iter emit (List.rev t.rows);
  Buffer.contents buf

let fmt_ratio v = Printf.sprintf "%.2fx" v

let fmt_si v =
  let abs = Float.abs v in
  if abs >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if abs >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if abs >= 1e3 then Printf.sprintf "%.1fK" (v /. 1e3)
  else Printf.sprintf "%.0f" v

(* Shortest decimal form that parses back to the identical float, so
   print -> parse is the identity on every representable value. *)
let fmt_shortest v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let rec go p =
      if p > 17 then Printf.sprintf "%.17g" v
      else
        let s = Printf.sprintf "%.*g" p v in
        if float_of_string s = v then s else go (p + 1)
    in
    go 1
