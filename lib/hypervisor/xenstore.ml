type node = { mutable value : string option; children : (string, node) Hashtbl.t }

type t = {
  root : node;
  mutable watches : (string * (string -> unit)) list;
  mutable ops : int;
}

let make_node () = { value = None; children = Hashtbl.create 4 }
let create () = { root = make_node (); watches = []; ops = 0 }

let split path = String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let rec find_node node = function
  | [] -> Some node
  | c :: rest -> begin
      match Hashtbl.find_opt node.children c with
      | Some child -> find_node child rest
      | None -> None
    end

let fire_watches t path =
  List.iter
    (fun (prefix, f) ->
      let matches =
        path = prefix
        || String.length path > String.length prefix
           && String.sub path 0 (String.length prefix) = prefix
           && (prefix = "" || path.[String.length prefix] = '/')
      in
      if matches then f path)
    t.watches

let write t ~path value =
  t.ops <- t.ops + 1;
  let rec go node = function
    | [] -> node.value <- Some value
    | c :: rest ->
        let child =
          match Hashtbl.find_opt node.children c with
          | Some n -> n
          | None ->
              let n = make_node () in
              Hashtbl.add node.children c n;
              n
        in
        go child rest
  in
  go t.root (split path);
  fire_watches t path

let read t ~path =
  t.ops <- t.ops + 1;
  match find_node t.root (split path) with
  | Some node -> node.value
  | None -> None

let directory t ~path =
  t.ops <- t.ops + 1;
  match find_node t.root (split path) with
  | Some node ->
      Hashtbl.fold (fun k _ acc -> k :: acc) node.children [] |> List.sort compare
  | None -> []

let watch t ~path f = t.watches <- (path, f) :: t.watches
let op_count t = t.ops

(* XenBus states, as integers in the store. *)
let device_handshake t ~domid ~device =
  let before = t.ops in
  let front = Printf.sprintf "/local/domain/%d/device/%s/0" domid device in
  let back = Printf.sprintf "/local/domain/0/backend/%s/%d/0" device domid in
  let sync_step state =
    write t ~path:(front ^ "/state") (string_of_int state);
    ignore (read t ~path:(back ^ "/state"));
    write t ~path:(back ^ "/state") (string_of_int state);
    ignore (read t ~path:(front ^ "/state"))
  in
  (* Initialising(1) -> InitWait(2) -> Initialised(3) -> Connected(4),
     plus the ring-ref and event-channel exchange. *)
  sync_step 1;
  write t ~path:(front ^ "/ring-ref") "42";
  write t ~path:(front ^ "/event-channel") "7";
  sync_step 2;
  sync_step 3;
  sync_step 4;
  t.ops - before
