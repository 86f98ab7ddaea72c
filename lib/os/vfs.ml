type node = File of { mutable data : bytes } | Dir of (string, node) Hashtbl.t

type error =
  | Not_found
  | Not_a_directory
  | Is_a_directory

let error_to_string = function
  | Not_found -> "no such file or directory"
  | Not_a_directory -> "not a directory"
  | Is_a_directory -> "is a directory"

type t = { root : (string, node) Hashtbl.t }

let create () = { root = Hashtbl.create 16 }

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let rec walk dir = function
  | [] -> Ok (Dir dir)
  | [ last ] -> begin
      match Hashtbl.find_opt dir last with
      | Some node -> Ok node
      | None -> Error Not_found
    end
  | comp :: rest -> begin
      match Hashtbl.find_opt dir comp with
      | Some (Dir d) -> walk d rest
      | Some (File _) -> Error Not_a_directory
      | None -> Error Not_found
    end

let lookup t path = walk t.root (split_path path)

let parent_dir t path =
  let comps = split_path path in
  match List.rev comps with
  | [] -> Error Is_a_directory
  | name :: rev_parents -> begin
      match walk t.root (List.rev rev_parents) with
      | Ok (Dir d) -> Ok (d, name)
      | Ok (File _) -> Error Not_a_directory
      | Error e -> Error e
    end

let mkdir_p t path =
  let comps = split_path path in
  let rec go dir = function
    | [] -> Ok ()
    | comp :: rest -> begin
        match Hashtbl.find_opt dir comp with
        | Some (Dir d) -> go d rest
        | Some (File _) -> Error Not_a_directory
        | None ->
            let d = Hashtbl.create 8 in
            Hashtbl.add dir comp (Dir d);
            go d rest
      end
  in
  go t.root comps

let write_file t path data =
  match parent_dir t path with
  | Error e -> Error e
  | Ok (dir, name) -> begin
      match Hashtbl.find_opt dir name with
      | Some (Dir _) -> Error Is_a_directory
      | Some (File f) ->
          f.data <- data;
          Ok ()
      | None ->
          Hashtbl.add dir name (File { data });
          Ok ()
    end

let read_file t path =
  match lookup t path with
  | Ok (File f) -> Ok f.data
  | Ok (Dir _) -> Error Is_a_directory
  | Error e -> Error e

let readdir t path =
  match lookup t path with
  | Ok (Dir d) -> Ok (Hashtbl.fold (fun k _ acc -> k :: acc) d [] |> List.sort compare)
  | Ok (File _) -> Error Not_a_directory
  | Error e -> Error e

let copy_cost_ns ~bytes_len = 140. +. (0.05 *. float_of_int bytes_len)
