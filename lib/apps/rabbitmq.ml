module K = Xc_os.Kernel

let abom_coverage = 0.986

let publish_transient =
  Recipe.make ~name:"rabbitmq-publish" ~user_ns:11_000.
    ~ops:
      [
        (* producer leg *)
        K.Epoll;
        K.Socket_recv 1200;
        K.Cheap Getpid;
        (* route + consumer leg *)
        K.Socket_send 1200;
        K.Epoll;
        K.Socket_recv 60 (* ack *);
        K.Socket_send 60;
      ]
    ~request_bytes:1200 ~response_bytes:60 ~irqs:4 ~abom_coverage ()

let server ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min 4 cores))
    ~stddev:0.15 ~floor:0.4 platform publish_transient
