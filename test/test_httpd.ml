(* Integration tests: a request served end to end through the semantic
   substrate (VFS + sockets + the HTTP model), and the X-Container's
   split-driver network path: its XenStore handshake and its traced
   per-hop charge. *)

let make_server () =
  let kernel = Xc_os.Kernel.create ~config:Xc_os.Kernel.xlibos_config () in
  let vfs = Xc_os.Kernel.vfs kernel in
  (match Xc_os.Vfs.mkdir_p vfs "/var/www" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xc_os.Vfs.error_to_string e));
  (match
     Xc_os.Vfs.write_file vfs "/var/www/index.html"
       (Bytes.of_string "<h1>X-Containers</h1>")
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Xc_os.Vfs.error_to_string e));
  match Xc_apps.Httpd.create ~kernel ~port:80 ~docroot:"/var/www" with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_serves_page () =
  let server = make_server () in
  match Xc_apps.Httpd.get server ~path:"/index.html" with
  | Ok (200, body) ->
      Alcotest.(check string) "body" "<h1>X-Containers</h1>" body;
      Alcotest.(check int) "served one" 1 (Xc_apps.Httpd.requests_served server)
  | Ok (code, _) -> Alcotest.failf "expected 200, got %d" code
  | Error e -> Alcotest.fail e

let test_404 () =
  let server = make_server () in
  match Xc_apps.Httpd.get server ~path:"/missing.html" with
  | Ok (404, _) -> ()
  | Ok (code, _) -> Alcotest.failf "expected 404, got %d" code
  | Error e -> Alcotest.fail e

let test_many_requests () =
  let server = make_server () in
  for _ = 1 to 50 do
    match Xc_apps.Httpd.get server ~path:"/index.html" with
    | Ok (200, _) -> ()
    | Ok (code, _) -> Alcotest.failf "got %d" code
    | Error e -> Alcotest.fail e
  done;
  Alcotest.(check int) "all served" 50 (Xc_apps.Httpd.requests_served server)

let test_bad_docroot () =
  let kernel = Xc_os.Kernel.create () in
  match Xc_apps.Httpd.create ~kernel ~port:80 ~docroot:"/nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing docroot must fail"

(* The split driver's connection handshake on XenStore: the frontend
   publishes its shared ring's grant reference and its event-channel
   port before it reports Initialised (3), so a backend watching the
   frontend's directory can map the ring and bind the port before both
   sides connect. *)
let test_split_driver_grants () =
  let module Xs = Xc_hypervisor.Xenstore in
  let module Ec = Xc_hypervisor.Event_channel in
  let xs = Xs.create () in
  let front = "/local/domain/3/device/vif/0" in
  let writes = ref [] in
  Xs.watch xs ~path:front (fun path ->
      writes := (Filename.basename path, Xs.read xs ~path) :: !writes);
  ignore (Xs.device_handshake xs ~domid:3 ~device:"vif");
  let writes = List.rev !writes in
  let index w =
    let rec go i = function
      | [] -> Alcotest.failf "frontend never wrote %s" (fst w)
      | x :: rest -> if x = w then i else go (i + 1) rest
    in
    go 0 writes
  in
  let initialised = index ("state", Some "3") in
  let ring_ref = List.assoc "ring-ref" writes in
  let port = List.assoc "event-channel" writes in
  Alcotest.(check bool) "ring grant published before Initialised" true
    (index ("ring-ref", ring_ref) < initialised);
  Alcotest.(check bool) "event channel published before Initialised" true
    (index ("event-channel", port) < initialised);
  Alcotest.(check (option string)) "backend connected" (Some "4")
    (Xs.read xs ~path:"/local/domain/0/backend/vif/3/0/state");
  (* The backend binds the published port; ring notifications land there. *)
  let port = int_of_string (Option.get port) in
  let events = Ec.create Ec.Via_hypervisor in
  Ec.bind events ~port;
  ignore (Ec.notify events ~port);
  Alcotest.(check (list int)) "notification on the published port" [ port ]
    (Ec.pending events)

(* A 6000-byte message on the X-Container's network path, traced: one
   net.hop span per hop, each covering the message's five packets, the
   hops completing back to back in path order (guest stack, the ring
   crossing to the driver domain, the cloud's iptables hop) and
   together exactly the charged cost. *)
let test_split_driver_completion_order () =
  let module Trace = Xc_trace.Trace in
  let module Netpath = Xc_net.Netpath in
  let module P = Xc_platforms in
  let hops =
    P.Platform.net_hops (P.Platform.create (P.Config.make P.Config.X_container))
  in
  Trace.enable ~capacity:Trace.default_capacity ~sample:1 ();
  let cost, captured =
    Fun.protect
      ~finally:Trace.disable
      (fun () ->
        Trace.capture (fun () -> Netpath.message_cost_ns hops ~bytes_len:6000 ~mss:1448))
  in
  let spans = captured.Trace.events in
  Alcotest.(check (list string)) "completion order"
    [ "native-stack"; "split-driver"; "iptables" ]
    (List.map Trace.name spans);
  Alcotest.(check (float 1e-6)) "split driver: five ring crossings"
    (5. *. Netpath.hop_cost_ns Netpath.Split_driver ~bytes_len:1448)
    (Trace.dur (List.find (fun e -> Trace.name e = "split-driver") spans));
  ignore
    (List.fold_left
       (fun at e ->
         Alcotest.(check (float 1e-6))
           (Trace.name e ^ " starts as the previous hop ends")
           at (Trace.ts e);
         Trace.ts e +. Trace.dur e)
       0. spans);
  Alcotest.(check (float 1e-6)) "spans sum to the charge" cost captured.Trace.cursor

let suites =
  [
    ( "integration.httpd",
      [
        Alcotest.test_case "serves page" `Quick test_serves_page;
        Alcotest.test_case "404" `Quick test_404;
        Alcotest.test_case "many requests" `Quick test_many_requests;
        Alcotest.test_case "bad docroot" `Quick test_bad_docroot;
      ] );
    ( "integration.split_driver",
      [
        Alcotest.test_case "grant handshake" `Quick test_split_driver_grants;
        Alcotest.test_case "completion order" `Quick test_split_driver_completion_order;
      ] );
  ]
