module K = Xc_os.Kernel

let abom_coverage_auto = 0.446
let abom_coverage_manual = 0.922

let coverage ~offline_patched =
  if offline_patched then abom_coverage_manual else abom_coverage_auto

let read_query ~offline_patched =
  Recipe.make ~name:"mysql-read" ~user_ns:21_000.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 180;
        K.Cheap Getpid (* futex-ish bookkeeping stand-in *);
        K.File_read 4096 (* buffer-pool page, cache-warm *);
        K.Socket_send 420;
      ]
    ~request_bytes:180 ~response_bytes:420 ~irqs:2
    ~abom_coverage:(coverage ~offline_patched) ()

let write_query ~offline_patched =
  Recipe.make ~name:"mysql-write" ~user_ns:26_000.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 220;
        K.Cheap Getpid;
        K.File_write 4096 (* page dirty + redo log append *);
        K.File_write 512;
        K.Socket_send 60;
      ]
    ~request_bytes:220 ~response_bytes:60 ~irqs:2
    ~abom_coverage:(coverage ~offline_patched) ()

let mixed_query ~offline_patched =
  let r = read_query ~offline_patched and w = write_query ~offline_patched in
  Recipe.make ~name:"mysql-mixed"
    ~user_ns:((r.Recipe.user_ns +. w.Recipe.user_ns) /. 2.)
    ~ops:r.Recipe.ops (* read skeleton; user_ns carries the write cost *)
    ~request_bytes:200 ~response_bytes:240 ~irqs:2
    ~abom_coverage:(coverage ~offline_patched) ()

let server ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min 4 cores))
    ~stddev:0.15 ~floor:0.4 platform
    (mixed_query ~offline_patched:false)
