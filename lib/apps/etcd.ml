module K = Xc_os.Kernel

let abom_coverage = 1.0

let get_request =
  Recipe.make ~name:"etcd-get" ~user_ns:4_200.
    ~ops:[ K.Epoll; K.Socket_recv 120; K.Socket_send 480; K.Cheap Getpid ]
    ~request_bytes:120 ~response_bytes:480 ~irqs:2 ~abom_coverage ()

let put_request =
  Recipe.make ~name:"etcd-put" ~user_ns:9_500.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 600;
        K.File_write 512;
        K.File_write 64 (* WAL entry + index *);
        K.Socket_send 90;
      ]
    ~request_bytes:600 ~response_bytes:90 ~irqs:2 ~abom_coverage ()

let mixed_request =
  let r = get_request and w = put_request in
  Recipe.make ~name:"etcd-mixed"
    ~user_ns:((0.75 *. r.Recipe.user_ns) +. (0.25 *. w.Recipe.user_ns))
    ~ops:(r.Recipe.ops @ [ K.File_write 512 ] (* amortised WAL share *))
    ~request_bytes:240 ~response_bytes:380 ~irqs:2 ~abom_coverage ()

let server ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min 4 cores))
    ~stddev:0.12 ~floor:0.4 platform mixed_request
