let buffer_capacity = 65536

type t = {
  id : int;
  mutable state : state;
  mutable bound_port : int option;
  mutable peer : t option;
  rx : Buffer.t;
  mutable peer_closed : bool;
}

and state =
  | Closed
  | Listening of { backlog : int; pending : t list }
  | Connecting
  | Established
  | Shut_down

let next_id = ref 0

let create () =
  incr next_id;
  {
    id = !next_id;
    state = Closed;
    bound_port = None;
    peer = None;
    rx = Buffer.create 256;
    peer_closed = false;
  }

let state t = t.state

let bind t ~port =
  match t.state with
  | Closed when t.bound_port = None -> begin
      t.bound_port <- Some port;
      Ok ()
    end
  | Closed -> Error "already bound"
  | _ -> Error "socket not fresh"

let listen t ~backlog =
  match (t.state, t.bound_port) with
  | Closed, Some _ ->
      if backlog <= 0 then Error "backlog must be positive"
      else begin
        t.state <- Listening { backlog; pending = [] };
        Ok ()
      end
  | Closed, None -> Error "not bound"
  | _ -> Error "not in closed state"

let establish_pair client =
  let server_side = create () in
  server_side.state <- Established;
  server_side.peer <- Some client;
  client.peer <- Some server_side;
  client.state <- Established;
  server_side

let connect t ~to_port ~namespace =
  if t.state <> Closed then Error "socket busy"
  else begin
    let listener =
      List.find_opt
        (fun s ->
          match (s.state, s.bound_port) with
          | Listening _, Some p -> p = to_port
          | _ -> false)
        namespace
    in
    match listener with
    | None -> Error "connection refused"
    | Some l -> begin
        match l.state with
        | Listening { backlog; pending } ->
            if List.length pending >= backlog then Error "backlog full"
            else begin
              let server_side = establish_pair t in
              l.state <- Listening { backlog; pending = pending @ [ server_side ] };
              Ok server_side
            end
        | _ -> Error "connection refused"
      end
  end

let accept t =
  match t.state with
  | Listening { backlog; pending } -> begin
      match pending with
      | [] -> Error "would block"
      | first :: rest ->
          t.state <- Listening { backlog; pending = rest };
          Ok first
      end
  | _ -> Error "not listening"

let send t data =
  match (t.state, t.peer) with
  | Established, Some p ->
      if p.peer_closed || p.state = Shut_down then Error "broken pipe"
      else begin
        let room = buffer_capacity - Buffer.length p.rx in
        let n = Stdlib.min room (Bytes.length data) in
        Buffer.add_subbytes p.rx data 0 n;
        Ok n
      end
  | Established, None -> Error "no peer"
  | _ -> Error "not connected"

let recv t ~max_len =
  match t.state with
  | Established | Shut_down ->
      let available = Buffer.length t.rx in
      if available = 0 then
        if t.peer_closed then Error "connection closed by peer"
        else Ok Bytes.empty
      else begin
        let n = Stdlib.min max_len available in
        let out = Bytes.create n in
        Bytes.blit_string (Buffer.contents t.rx) 0 out 0 n;
        let rest = Buffer.sub t.rx n (available - n) in
        Buffer.clear t.rx;
        Buffer.add_string t.rx rest;
        Ok out
      end
  | _ -> Error "not connected"

let close t =
  (match t.peer with Some p -> p.peer_closed <- true | None -> ());
  t.state <- Shut_down
