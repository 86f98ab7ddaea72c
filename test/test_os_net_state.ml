(* Tests for the stateful socket model added beyond the cost models. *)

open Xc_os

(* ---------------- Sockets ---------------- *)

let listener ~port ~backlog =
  let s = Socket.create () in
  (match Socket.bind s ~port with Ok () -> () | Error e -> Alcotest.fail e);
  (match Socket.listen s ~backlog with Ok () -> () | Error e -> Alcotest.fail e);
  s

let test_socket_lifecycle () =
  let srv = listener ~port:80 ~backlog:4 in
  let client = Socket.create () in
  (match Socket.connect client ~to_port:80 ~namespace:[ srv ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let server_side =
    match Socket.accept srv with Ok s -> s | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "client established" true (Socket.state client = Socket.Established);
  Alcotest.(check bool) "server side established" true
    (Socket.state server_side = Socket.Established);
  (* Request/response through the buffers. *)
  (match Socket.send client (Bytes.of_string "GET / HTTP/1.1") with
  | Ok 14 -> ()
  | Ok n -> Alcotest.failf "partial send %d" n
  | Error e -> Alcotest.fail e);
  (match Socket.recv server_side ~max_len:1024 with
  | Ok b -> Alcotest.(check string) "request arrives" "GET / HTTP/1.1" (Bytes.to_string b)
  | Error e -> Alcotest.fail e);
  (match Socket.send server_side (Bytes.of_string "200 OK") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Socket.recv client ~max_len:1024 with
  | Ok b -> Alcotest.(check string) "response arrives" "200 OK" (Bytes.to_string b)
  | Error e -> Alcotest.fail e)

let test_socket_refusal_and_backlog () =
  let client = Socket.create () in
  (match Socket.connect client ~to_port:81 ~namespace:[] with
  | Error "connection refused" -> ()
  | _ -> Alcotest.fail "expected refusal");
  let srv = listener ~port:81 ~backlog:1 in
  let c1 = Socket.create () and c2 = Socket.create () in
  (match Socket.connect c1 ~to_port:81 ~namespace:[ srv ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Socket.connect c2 ~to_port:81 ~namespace:[ srv ] with
  | Error "backlog full" -> ()
  | _ -> Alcotest.fail "expected backlog full"

let test_socket_eof_and_broken_pipe () =
  let srv = listener ~port:82 ~backlog:2 in
  let client = Socket.create () in
  ignore (Socket.connect client ~to_port:82 ~namespace:[ srv ]);
  let server_side = match Socket.accept srv with Ok s -> s | Error e -> Alcotest.fail e in
  ignore (Socket.send client (Bytes.of_string "bye"));
  Socket.close client;
  (* The peer can still drain buffered data, then sees EOF. *)
  (match Socket.recv server_side ~max_len:10 with
  | Ok b -> Alcotest.(check string) "drain before EOF" "bye" (Bytes.to_string b)
  | Error e -> Alcotest.fail e);
  (match Socket.recv server_side ~max_len:10 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected EOF");
  match Socket.send server_side (Bytes.of_string "x") with
  | Error "broken pipe" -> ()
  | _ -> Alcotest.fail "expected broken pipe"

let test_socket_flow_control () =
  let srv = listener ~port:83 ~backlog:2 in
  let client = Socket.create () in
  ignore (Socket.connect client ~to_port:83 ~namespace:[ srv ]);
  let _server_side = match Socket.accept srv with Ok s -> s | Error e -> Alcotest.fail e in
  let big = Bytes.make (Socket.buffer_capacity + 100) 'x' in
  (match Socket.send client big with
  | Ok n -> Alcotest.(check int) "bounded by buffer" Socket.buffer_capacity n
  | Error e -> Alcotest.fail e);
  match Socket.send client (Bytes.of_string "y") with
  | Ok 0 -> () (* would block *)
  | Ok n -> Alcotest.failf "expected 0, got %d" n
  | Error e -> Alcotest.fail e

let test_socket_accept_order () =
  let srv = listener ~port:84 ~backlog:8 in
  let mk tag =
    let c = Socket.create () in
    ignore (Socket.connect c ~to_port:84 ~namespace:[ srv ]);
    ignore (Socket.send c (Bytes.of_string tag));
    c
  in
  let _a = mk "first" and _b = mk "second" in
  let s1 = match Socket.accept srv with Ok s -> s | Error e -> Alcotest.fail e in
  (match Socket.recv s1 ~max_len:16 with
  | Ok b -> Alcotest.(check string) "FIFO accept" "first" (Bytes.to_string b)
  | Error e -> Alcotest.fail e);
  match Socket.accept srv with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let suites =
  [
    ( "os.socket",
      [
        Alcotest.test_case "lifecycle" `Quick test_socket_lifecycle;
        Alcotest.test_case "refusal/backlog" `Quick test_socket_refusal_and_backlog;
        Alcotest.test_case "EOF/broken pipe" `Quick test_socket_eof_and_broken_pipe;
        Alcotest.test_case "flow control" `Quick test_socket_flow_control;
        Alcotest.test_case "accept order" `Quick test_socket_accept_order;
      ] );
  ]
