module K = Xc_os.Kernel

let abom_coverage = 1.0

(* One GET under memtier's high connection count: epoll churn, command
   read, hash lookup, sendmsg, speculative drains, epoll_ctl rearms and
   clock reads — memcached is the most syscall-dense of the three
   macrobenchmarks, and its tiny packets make the per-packet interrupt
   path a large share of the total. *)
let get_request =
  Recipe.make ~name:"memcached-get" ~user_ns:1_400.
    ~ops:
      [
        K.Epoll;
        K.Cheap Dup (* epoll_ctl rearm *);
        K.Socket_recv 96;
        K.Socket_recv 0 (* drain returning EAGAIN *);
        K.Cheap Getpid (* clock_gettime *);
        K.Socket_send 1124;
        K.Cheap Dup;
        K.Epoll;
        K.Cheap Getpid;
        K.Socket_recv 0;
        K.Socket_send 0 (* short write retry *);
        K.Cheap Umask (* stats counters timer *);
        K.Epoll;
        K.Cheap Getuid;
      ]
    ~request_bytes:96 ~response_bytes:1124 ~irqs:5 ~abom_coverage ()

let set_request =
  Recipe.make ~name:"memcached-set" ~user_ns:1_900.
    ~ops:
      [
        K.Epoll;
        K.Cheap Dup;
        K.Socket_recv 1160;
        K.Socket_recv 0;
        K.Cheap Getpid;
        K.Socket_send 40;
        K.Cheap Dup;
        K.Epoll;
        K.Cheap Getpid;
        K.Socket_recv 0;
        K.Socket_send 0;
        K.Cheap Umask;
        K.Epoll;
        K.Cheap Getuid;
      ]
    ~request_bytes:1160 ~response_bytes:40 ~irqs:5 ~abom_coverage ()

(* 1:10 SET:GET. *)
let mixed_request =
  let g = 10. /. 11. and s = 1. /. 11. in
  Recipe.make ~name:"memcached-mixed"
    ~user_ns:((g *. get_request.Recipe.user_ns) +. (s *. set_request.Recipe.user_ns))
    ~ops:get_request.Recipe.ops (* same op skeleton *)
    ~request_bytes:
      (int_of_float
         ((g *. float_of_int get_request.Recipe.request_bytes)
         +. (s *. float_of_int set_request.Recipe.request_bytes)))
    ~response_bytes:
      (int_of_float
         ((g *. float_of_int get_request.Recipe.response_bytes)
         +. (s *. float_of_int set_request.Recipe.response_bytes)))
    ~irqs:5 ~abom_coverage ()

let server ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min 4 cores))
    ~stddev:0.10 ~floor:0.5 platform mixed_request
