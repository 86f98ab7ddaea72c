module K = Xc_os.Kernel

let abom_coverage = 0.988

let search_request =
  Recipe.make ~name:"es-search" ~user_ns:120_000.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 420;
        K.Cheap Getpid;
        K.File_read 16384 (* segment data, page-cache warm *);
        K.File_read 16384;
        K.Socket_send 2600;
      ]
    ~request_bytes:420 ~response_bytes:2600 ~irqs:3 ~abom_coverage ()

let index_request =
  Recipe.make ~name:"es-index" ~user_ns:160_000.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 1800;
        K.Cheap Getpid;
        K.File_write 2048 (* translog append *);
        K.File_write 0 (* fsync-class barrier *);
        K.Socket_send 180;
      ]
    ~request_bytes:1800 ~response_bytes:180 ~irqs:3 ~abom_coverage ()

let mixed_request =
  Recipe.make ~name:"es-mixed"
    ~user_ns:((0.8 *. search_request.Recipe.user_ns) +. (0.2 *. index_request.Recipe.user_ns))
    ~ops:(search_request.Recipe.ops @ [ K.File_write 410 ])
    ~request_bytes:700 ~response_bytes:2100 ~irqs:3 ~abom_coverage ()

let server ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min 4 cores))
    ~stddev:0.25 ~floor:0.25 platform mixed_request
