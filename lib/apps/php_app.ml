module K = Xc_os.Kernel

let page_user_ns = 58_000.

let db_roundtrip_remote_ops =
  [ K.Socket_send 180; K.Epoll; K.Socket_recv 420 ]

let cgi_request ~queries =
  let base_ops =
    [
      K.Accept_op;
      K.Socket_recv 300;
      K.Stat_op;
      K.Open_op;
      K.File_read 2048 (* script source, cache-warm *);
      K.Socket_send 1800;
      K.Cheap Close;
    ]
  in
  let db_ops = List.concat (List.init queries (fun _ -> db_roundtrip_remote_ops)) in
  Recipe.make ~name:"php-cgi" ~user_ns:page_user_ns ~ops:(base_ops @ db_ops)
    ~request_bytes:300 ~response_bytes:1800 ~irqs:(3 + queries)
    ~abom_coverage:0.99 ()

let fpm_request =
  Recipe.make ~name:"php-fpm"
    ~user_ns:(page_user_ns +. 9_000. (* NGINX side + FastCGI marshalling *))
    ~ops:
      [
        (* NGINX front half *)
        K.Epoll;
        K.Socket_recv 240;
        (* FastCGI to the FPM worker over a Unix socket *)
        K.Pipe_write 600;
        K.Epoll;
        (* FPM worker *)
        K.Pipe_read 600;
        K.Stat_op;
        K.File_read 2048;
        K.Pipe_write 2000;
        (* NGINX back half *)
        K.Pipe_read 2000;
        K.Socket_send 1900;
        K.File_write 120;
      ]
    ~request_bytes:240 ~response_bytes:1900 ~process_hops:2 ~irqs:3
    ~abom_coverage:0.95 ()
