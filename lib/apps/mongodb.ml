module K = Xc_os.Kernel

let abom_coverage = 1.0

let read_request =
  Recipe.make ~name:"mongo-read" ~user_ns:14_000.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 240;
        K.Cheap Getpid (* clock for snapshot *);
        K.File_read 4096 (* cache-warm page via mmap fault path *);
        K.Socket_send 1500;
      ]
    ~request_bytes:240 ~response_bytes:1500 ~irqs:3 ~abom_coverage ()

let update_request =
  Recipe.make ~name:"mongo-update" ~user_ns:19_000.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 900;
        K.Cheap Getpid;
        K.File_read 4096;
        K.File_write 4096 (* dirty page *);
        K.File_write 350 (* journal record *);
        K.Socket_send 120;
      ]
    ~request_bytes:900 ~response_bytes:120 ~irqs:3 ~abom_coverage ()

let ycsb_a =
  Recipe.make ~name:"mongo-ycsb-a"
    ~user_ns:((read_request.Recipe.user_ns +. update_request.Recipe.user_ns) /. 2.)
    ~ops:(read_request.Recipe.ops @ [ K.File_write 350 ])
    ~request_bytes:570 ~response_bytes:810 ~irqs:3 ~abom_coverage ()

let server ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min 4 cores))
    ~stddev:0.18 ~floor:0.3 platform ycsb_a
