module K = Xc_os.Kernel

let abom_coverage = 1.0

let request =
  Recipe.make ~name:"redis-mixed" ~user_ns:3_600.
    ~ops:[ K.Epoll; K.Socket_recv 64; K.Socket_send 256 ]
    ~request_bytes:64 ~response_bytes:256 ~irqs:3 ~abom_coverage ()

let server ~cores:_ platform =
  Recipe.server ~units:1 ~stddev:0.10 ~floor:0.5 platform request
