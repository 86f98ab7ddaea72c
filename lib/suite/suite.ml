type t = { name : string; specs : Spec.t list }

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let validate_all specs =
  List.fold_left
    (fun acc (s : Spec.t) ->
      let* () = acc in
      Result.map_error
        (fun m -> Printf.sprintf "experiment %s: %s" s.Spec.name m)
        (Spec.validate s))
    (Ok ()) specs

let dup_name specs =
  let rec go seen = function
    | [] -> None
    | (s : Spec.t) :: rest ->
        if List.mem s.Spec.name seen then Some s.Spec.name
        else go (s.Spec.name :: seen) rest
  in
  go [] specs

let make ~name specs =
  if not (Spec.name_ok name) then
    Error
      (Printf.sprintf
         "field suite: %S: must be nonempty, using only [A-Za-z0-9._/=+:-]"
         name)
  else
    let* () = validate_all specs in
    match dup_name specs with
    | Some n -> Error (Printf.sprintf "duplicate experiment name %S" n)
    | None -> Ok { name; specs }

(* ------------------------------------------------------------------ *)
(* Cross products                                                      *)

let dedup_values vs =
  List.rev
    (List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) [] vs)

(* Expand [axes] over [base], later axes varying fastest.  Each
   combination is materialised through {!Spec.set_field} — the same
   write path the file parser uses — and named from the multi-valued
   axes' value strings, so distinct combinations get distinct names. *)
let cross_axes ~(base : Spec.t) axes =
  let* () =
    let rec dup seen = function
      | [] -> Ok ()
      | (k, _) :: rest ->
          if List.mem k seen then
            Error (Printf.sprintf "field %s: duplicate field" k)
          else dup (k :: seen) rest
    in
    dup [] axes
  in
  let axes =
    List.map
      (fun (k, vs) ->
        (k, match dedup_values vs with [] -> [ "" ] | vs -> vs))
      axes
  in
  let rec expand spec segs = function
    | [] ->
        let name =
          match List.rev segs with
          | [] -> base.Spec.name
          | segs -> base.Spec.name ^ "/" ^ String.concat "/" segs
        in
        Ok [ { spec with Spec.name } ]
    | (key, values) :: rest ->
        let multi = List.length values > 1 in
        List.fold_left
          (fun acc v ->
            let* specs = acc in
            let* spec' = Spec.set_field spec key v in
            let segs = if multi then v :: segs else segs in
            let* more = expand spec' segs rest in
            Ok (specs @ more))
          (Ok []) values
  in
  expand base [] axes

(* ------------------------------------------------------------------ *)
(* Canonical print                                                     *)

let print t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "suite = %s\n" t.name;
  List.iter
    (fun (s : Spec.t) ->
      Printf.bprintf b "\n[experiment %s]\n" s.Spec.name;
      List.iter
        (fun (k, v) -> Printf.bprintf b "%s = %s\n" k v)
        (Spec.print_fields s))
    t.specs;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)

type section = Experiment of string | Matrix of string

let parse_header line =
  (* "[experiment NAME]" or "[matrix NAME]" *)
  let body = String.sub line 1 (String.length line - 2) in
  match String.index_opt body ' ' with
  | None -> Error (Printf.sprintf "malformed section header %S" line)
  | Some i -> (
      let kind = String.sub body 0 i in
      let name = String.trim (String.sub body i (String.length body - i)) in
      match kind with
      | "experiment" -> Ok (Experiment name)
      | "matrix" -> Ok (Matrix name)
      | _ ->
          Error
            (Printf.sprintf
               "unknown section kind %S (experiment, matrix)" kind))

let split_kv line =
  match String.index_opt line '=' with
  | None -> Error (Printf.sprintf "expected key = value, got %S" line)
  | Some i ->
      Ok
        ( String.trim (String.sub line 0 i),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let split_values v = List.map String.trim (String.split_on_char ',' v)

(* Expand one section's key/value list into specs. *)
let expand_section section kvs =
  let name, is_matrix =
    match section with
    | Experiment n -> (n, false)
    | Matrix n -> (n, true)
  in
  let base = { Spec.default with Spec.name } in
  let ctx r =
    Result.map_error (fun m -> Printf.sprintf "experiment %s: %s" name m) r
  in
  if is_matrix then
    let* axes =
      ctx
        (List.fold_left
           (fun acc (k, v) ->
             let* axes = acc in
             let vs = split_values v in
             if List.exists (fun s -> s = "") vs then
               Error (Printf.sprintf "field %s: empty value in list %S" k v)
             else Ok (axes @ [ (k, vs) ]))
           (Ok []) kvs)
    in
    ctx (cross_axes ~base axes)
  else
    ctx
      (List.fold_left
         (fun acc (k, v) ->
           let* spec = acc in
           Spec.set_field spec k v)
         (Ok base) kvs
      |> Result.map (fun s -> [ s ]))

let parse ?(name = "suite") text =
  let lines = String.split_on_char '\n' text in
  (* First pass: group into (lineno, section, kvs). *)
  let rec gather lineno suite_name sections current = function
    | [] -> Ok (suite_name, List.rev (match current with
        | None -> sections
        | Some (sec, kvs) -> (sec, List.rev kvs) :: sections))
    | line :: rest -> (
        let lineno = lineno + 1 in
        let t = String.trim line in
        let ctx r =
          Result.map_error (fun m -> Printf.sprintf "line %d: %s" lineno m) r
        in
        if t = "" || t.[0] = '#' then
          gather lineno suite_name sections current rest
        else if t.[0] = '[' then
          if String.length t < 2 || t.[String.length t - 1] <> ']' then
            Error (Printf.sprintf "line %d: malformed section header %S" lineno t)
          else
            let* sec = ctx (parse_header t) in
            let sections =
              match current with
              | None -> sections
              | Some (s, kvs) -> (s, List.rev kvs) :: sections
            in
            gather lineno suite_name sections (Some (sec, [])) rest
        else
          let* k, v = ctx (split_kv t) in
          match current with
          | Some (sec, kvs) ->
              if List.mem_assoc k kvs then
                Error
                  (Printf.sprintf "line %d: field %s: duplicate field" lineno k)
              else gather lineno suite_name sections (Some (sec, (k, v) :: kvs)) rest
          | None ->
              if k = "suite" then
                match suite_name with
                | Some _ ->
                    Error (Printf.sprintf "line %d: field suite: duplicate field" lineno)
                | None -> gather lineno (Some v) sections current rest
              else
                Error
                  (Printf.sprintf
                     "line %d: field %s: only \"suite\" may appear before the \
                      first section"
                     lineno k))
  in
  let* suite_name, sections = gather 0 None [] None lines in
  let* specs =
    List.fold_left
      (fun acc (sec, kvs) ->
        let* specs = acc in
        let* more = expand_section sec kvs in
        Ok (specs @ more))
      (Ok []) sections
  in
  make ~name:(Option.value suite_name ~default:name) specs

let parse_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse ~name:Filename.(remove_extension (basename path)) text
  | exception Sys_error m -> Error m
