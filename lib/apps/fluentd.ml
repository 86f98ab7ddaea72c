module K = Xc_os.Kernel

let abom_coverage = 0.994

let ingest_batch ~events =
  let bytes = events * 280 in
  Recipe.make ~name:"fluentd-ingest"
    ~user_ns:(float_of_int events *. 2_200.) (* Ruby parse + tag routing *)
    ~ops:
      [
        K.Epoll;
        K.Socket_recv bytes;
        K.Cheap Getpid (* clock per batch *);
        K.Socket_send 40 (* ack *);
      ]
    ~request_bytes:bytes ~response_bytes:40 ~irqs:3 ~abom_coverage ()

let flush_chunk =
  Recipe.make ~name:"fluentd-flush" ~user_ns:45_000.
    ~ops:[ K.Open_op; K.File_write 262144; K.File_write 0; K.Cheap Close ]
    ~request_bytes:0 ~response_bytes:0 ~irqs:0 ~abom_coverage ()

let steady_state =
  let batch = ingest_batch ~events:100 in
  (* One flush per ~40 batches. *)
  Recipe.make ~name:"fluentd-steady"
    ~user_ns:(batch.Recipe.user_ns +. (flush_chunk.Recipe.user_ns /. 40.))
    ~ops:(batch.Recipe.ops @ [ K.File_write 6554 (* amortised flush share *) ])
    ~request_bytes:batch.Recipe.request_bytes ~response_bytes:40 ~irqs:3
    ~abom_coverage ()

let server ~cores platform =
  Recipe.server
    ~units:(Stdlib.max 1 (Stdlib.min 2 cores))
    ~stddev:0.15 ~floor:0.4 platform steady_state
