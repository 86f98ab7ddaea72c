module Socket = Xc_os.Socket
module Vfs = Xc_os.Vfs
module Kernel = Xc_os.Kernel
module Trace = Xc_trace.Trace

type t = {
  kernel : Xc_os.Kernel.t;
  listener : Socket.t;
  port : int;
  docroot : string;
  mutable served : int;
  mutable issued : int;
}

let create ~kernel ~port ~docroot =
  match Vfs.readdir (Xc_os.Kernel.vfs kernel) docroot with
  | Error e -> Error ("docroot: " ^ Vfs.error_to_string e)
  | Ok _ -> begin
      let listener = Socket.create () in
      match Socket.bind listener ~port with
      | Error e -> Error e
      | Ok () -> begin
          match Socket.listen listener ~backlog:64 with
          | Error e -> Error e
          | Ok () -> Ok { kernel; listener; port; docroot; served = 0; issued = 0 }
        end
    end

let requests_served t = t.served

(* [Socket] is a pure state machine with no cost model; when tracing,
   the syscall work each socket/VFS operation would do is charged
   through the kernel so a request's trace shows real mechanisms
   ([syscall-work] spans on the synthetic cursor).  Untraced runs are
   byte-for-byte the old behaviour. *)
let charge t op = if Trace.enabled () then ignore (Kernel.syscall_work_ns t.kernel op)

let http_response ~status ~reason body =
  Printf.sprintf "HTTP/1.0 %d %s\r\nContent-Length: %d\r\n\r\n%s" status reason
    (String.length body) body

let parse_request raw =
  match String.split_on_char ' ' (String.trim raw) with
  | [ "GET"; path; _version ] -> Ok path
  | "GET" :: path :: _ -> Ok path
  | _ -> Error ()

let serve_one t conn =
  let reply s =
    charge t (Kernel.Socket_send (String.length s));
    ignore (Socket.send conn (Bytes.of_string s))
  in
  (match Socket.recv conn ~max_len:4096 with
  | Error _ -> ()
  | Ok raw -> begin
      charge t (Kernel.Socket_recv (Bytes.length raw));
      match parse_request (Bytes.to_string raw) with
      | Error () -> reply (http_response ~status:400 ~reason:"Bad Request" "bad request")
      | Ok path -> begin
          let full = t.docroot ^ path in
          charge t Kernel.Open_op;
          match Vfs.read_file (Xc_os.Kernel.vfs t.kernel) full with
          | Ok body ->
              charge t (Kernel.File_read (Bytes.length body));
              reply (http_response ~status:200 ~reason:"OK" (Bytes.to_string body))
          | Error _ ->
              reply (http_response ~status:404 ~reason:"Not Found" "not found")
        end
    end);
  t.served <- t.served + 1;
  Xc_sim.Metrics.counter_incr ~cat:"app" ~name:"requests";
  charge t (Kernel.Cheap Xc_os.Syscall_nr.Close);
  Socket.close conn

let handle_pending t =
  let rec go n =
    match Socket.accept t.listener with
    | Ok conn ->
        charge t Kernel.Accept_op;
        serve_one t conn;
        go (n + 1)
    | Error _ -> n
  in
  go 0

let parse_response raw =
  match String.index_opt raw ' ' with
  | None -> Error "malformed response"
  | Some i -> begin
      let rest = String.sub raw (i + 1) (String.length raw - i - 1) in
      match String.index_opt rest ' ' with
      | None -> Error "malformed status line"
      | Some j -> begin
          match int_of_string_opt (String.sub rest 0 j) with
          | None -> Error "bad status code"
          | Some status -> begin
              (* Body follows the blank line. *)
              let marker = "\r\n\r\n" in
              let rec find k =
                if k + 4 > String.length raw then None
                else if String.sub raw k 4 = marker then Some (k + 4)
                else find (k + 1)
              in
              match find 0 with
              | None -> Error "no body separator"
              | Some body_at ->
                  Ok (status, String.sub raw body_at (String.length raw - body_at))
            end
        end
    end

let get ?id ?deliver t ~path =
  t.issued <- t.issued + 1;
  let rid = match id with Some i -> i | None -> t.issued in
  let traced = Trace.enabled () in
  (* Bracket the whole exchange with cursor reads: every mechanism
     span charged in between lands inside [start, stop), which is what
     ties children to the request for [Profile.attribute].  The request
     span itself carries the id in [value] and does not advance the
     cursor. *)
  let start = if traced then Trace.cursor () else 0. in
  let finish result =
    if traced then begin
      let stop = Trace.cursor () in
      Trace.span_at ~id:rid ~cat:"request" ~name:"httpd" [| start; stop -. start |]
    end;
    result
  in
  let client = Socket.create () in
  match Socket.connect client ~to_port:t.port ~namespace:[ t.listener ] with
  | Error e -> finish (Error e)
  | Ok _server_side -> begin
      charge t (Kernel.Cheap Xc_os.Syscall_nr.Connect);
      let request = Printf.sprintf "GET %s HTTP/1.0" path in
      match Socket.send client (Bytes.of_string request) with
      | Error e -> finish (Error e)
      | Ok _ -> begin
          charge t (Kernel.Socket_send (String.length request));
          (* Wire + interrupt delivery between client and server, if
             the caller models one (e.g. net hops and an event-channel
             notify); runs inside the request window. *)
          (match deliver with None -> () | Some f -> f ());
          ignore (handle_pending t);
          match Socket.recv client ~max_len:65536 with
          | Error e -> finish (Error e)
          | Ok raw ->
              charge t (Kernel.Socket_recv (Bytes.length raw));
              finish (parse_response (Bytes.to_string raw))
        end
    end
