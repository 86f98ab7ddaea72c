module K = Xc_os.Kernel

let abom_coverage = 0.998

(* One pgbench TPC-B-ish transaction: 3 updates, 1 select, 1 insert,
   WAL flush at commit. *)
let transaction =
  Recipe.make ~name:"pgbench-tx" ~user_ns:55_000.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 300;
        K.File_read 8192;
        K.File_write 8192;
        K.File_read 8192;
        K.File_write 8192;
        K.File_read 8192;
        K.File_write 8192;
        K.File_write 600 (* WAL record *);
        K.File_write 0 (* fsync-class commit, modelled as write barrier *);
        K.Socket_send 150;
      ]
    ~request_bytes:300 ~response_bytes:150 ~irqs:2 ~abom_coverage ()

let server ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min 8 cores))
    ~stddev:0.2 ~floor:0.3 platform transaction
