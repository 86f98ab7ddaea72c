module K = Xc_os.Kernel

let abom_coverage = 0.923

(* ab closes the connection every request: accept4, two epoll_ctl, read,
   stat+open+fstat+read for the (cached) file, writev, access log write,
   close x2, epoll_wait shares.  16 syscalls, ~7us of parsing and
   response assembly, 5 packets (SYN/ACK/FIN overhead folded into irqs). *)
let static_request_ab =
  Recipe.make ~name:"nginx-static-ab" ~user_ns:6_500.
    ~ops:
      [
        K.Epoll;
        K.Accept_op;
        K.Cheap Getuid (* getsockopt stand-in *);
        K.Epoll;
        K.Socket_recv 220;
        K.Stat_op;
        K.Open_op;
        K.Cheap Fstat;
        K.File_read 1024;
        K.Socket_send 1024;
        K.File_write 110 (* access log *);
        K.Cheap Close;
        K.Cheap Close;
        K.Epoll;
        K.Cheap Dup;
        K.Cheap Umask;
      ]
    ~request_bytes:220 ~response_bytes:1024 ~irqs:5 ~abom_coverage ()

(* wrk keeps connections open: no accept/close, fewer packets. *)
let static_request_wrk =
  Recipe.make ~name:"nginx-static-wrk" ~user_ns:5_500.
    ~ops:
      [
        K.Epoll;
        K.Socket_recv 180;
        K.Stat_op;
        K.File_read 1024;
        K.Socket_send 1024;
        K.File_write 110;
        K.Epoll;
        K.Cheap Getpid;
      ]
    ~request_bytes:180 ~response_bytes:1024 ~irqs:2 ~abom_coverage ()

let workers_default = 1

let server ?(workers = workers_default) ?(keepalive = true) ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min workers cores))
    ~stddev:0.08 ~floor:0.5 platform
    (if keepalive then static_request_wrk else static_request_ab)
