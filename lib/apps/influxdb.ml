module K = Xc_os.Kernel

let abom_coverage = 1.0

let write_batch ~points =
  let bytes = points * 90 in
  Recipe.make ~name:"influx-write"
    ~user_ns:(float_of_int points *. 900.) (* parse + shard + cache insert *)
    ~ops:
      [
        K.Epoll;
        K.Socket_recv bytes;
        K.Cheap Getpid;
        K.File_write (points * 30) (* WAL append, compressed *);
        K.Socket_send 60;
      ]
    ~request_bytes:bytes ~response_bytes:60 ~irqs:3 ~abom_coverage ()

let range_query =
  Recipe.make ~name:"influx-query" ~user_ns:140_000.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 300;
        K.File_read 32768 (* TSM blocks *);
        K.File_read 32768;
        K.Socket_send 4800;
      ]
    ~request_bytes:300 ~response_bytes:4800 ~irqs:4 ~abom_coverage ()

let mixed_request =
  let w = write_batch ~points:100 in
  Recipe.make ~name:"influx-mixed"
    ~user_ns:((0.9 *. w.Recipe.user_ns) +. (0.1 *. range_query.Recipe.user_ns))
    ~ops:w.Recipe.ops ~request_bytes:w.Recipe.request_bytes ~response_bytes:500
    ~irqs:3 ~abom_coverage ()

let server ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min 4 cores))
    ~stddev:0.15 ~floor:0.4 platform mixed_request
