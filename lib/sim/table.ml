type align = Left | Right

type format =
  | Scaled of { per : float; digits : int; unit : string }
  | Ratio
  | Si
  | Percent of int
  | Delta of int

type cell = Text of string | Num of float * format * string

let num ?(rest = "") format v = Num (v, format, rest)
let int n = num (Scaled { per = 1.; digits = 0; unit = "" }) (float_of_int n)

type t = {
  title : string option;
  columns : (string * align) list;
  mutable rows : cell list list; (* reversed *)
}

let create ?title columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let title t = t.title

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

(* The number a format shows, before its digits are cut. *)
let scaled format v =
  match format with
  | Scaled { per; _ } -> v /. per
  | Ratio | Si -> v
  | Percent _ | Delta _ -> 100. *. v

let text = function
  | Text s -> s
  | Num (v, format, rest) ->
      let shown =
        match format with
        | Scaled { digits; unit; _ } ->
            Printf.sprintf "%.*f%s" digits (scaled format v) unit
        | Ratio -> fmt_ratio v
        | Si -> fmt_si v
        | Percent digits -> Printf.sprintf "%.*f%%" digits (scaled format v)
        | Delta digits -> Printf.sprintf "%+.*f%%" digits (scaled format v)
      in
      shown ^ rest

let render t =
  let rows = List.rev_map (List.map text) t.rows in
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
  let field = function
    | Text s -> escape s
    | Num (v, format, _) -> fmt_shortest (scaled format v)
  in
  let buf = Buffer.create 1024 in
  let emit fields =
    Buffer.add_string buf (String.concat "," fields);
    Buffer.add_char buf '\n'
  in
  emit (List.map (fun (h, _) -> escape h) t.columns);
  List.iter (fun cells -> emit (List.map field cells)) (List.rev t.rows);
  Buffer.contents buf
