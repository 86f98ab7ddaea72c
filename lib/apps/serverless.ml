module Config = Xc_platforms.Config
module Platform = Xc_platforms.Platform
module K = Xc_os.Kernel

type contender = G | U | X

let contender_name = function
  | G -> "Graphene"
  | U -> "Unikernel"
  | X -> "X-Container"

let runtime_of = function
  | G -> Config.Graphene
  | U -> Config.Unikernel
  | X -> Config.X_container

let platform_of c =
  Platform.create
    (Config.make ~cloud:Local_cluster ~meltdown_patched:false (runtime_of c))

(* Rumprun's NetBSD-derived TCP path adds latency per round trip and a
   little per-request processing — the reason "the Linux kernel
   outperforms the Rumprun kernel" in Section 5.5. *)
let rump_request_extra_ns = 1_500.
let rump_tcp_roundtrip_extra_ns = 26_000.

let nginx_one_worker c =
  let platform = platform_of c in
  let service = Recipe.service_ns platform Nginx.static_request_wrk in
  let service = if c = U then service +. rump_request_extra_ns else service in
  1e9 /. service

(* Four workers contend on the shared accept queue and NIC; neither
   scales perfectly.  Graphene additionally coordinates shared POSIX
   state over IPC on every syscall (Section 5.5). *)
let four_worker_efficiency = function G -> 0.90 | U | X -> 0.65

let nginx_four_workers c =
  match c with
  | U -> None (* single-process only *)
  | G | X ->
      let platform = platform_of c in
      let recipe = Nginx.static_request_wrk in
      let per_req = Recipe.service_ns platform recipe in
      let per_req =
        match c with
        | G ->
            let ipc_extra =
              Xc_platforms.Syscall_path.graphene_entry_ns ~multiprocess:true
              -. Xc_platforms.Syscall_path.graphene_entry_ns ~multiprocess:false
            in
            per_req +. (float_of_int (Recipe.syscall_count recipe) *. ipc_extra)
        | U | X -> per_req
      in
      Some (four_worker_efficiency c *. 4. *. 1e9 /. per_req)

type db_topology = Shared | Dedicated | Dedicated_merged

let topology_name = function
  | Shared -> "Shared"
  | Dedicated -> "Dedicated"
  | Dedicated_merged -> "Dedicated&Merged"

let queries_per_page = 12

(* The PHP stage's own CPU per page: interpreter + request handling. *)
let php_cpu_ns platform =
  let per_page_ops = [ K.Accept_op; K.Socket_recv 300; K.Socket_send 1800; K.Cheap Close ]
  and per_query_ops = [ K.Socket_send 180; K.Socket_recv 420 ] in
  let ops_cost ops =
    List.fold_left (fun acc op -> acc +. Platform.syscall_ns ~coverage:0.99 platform op) 0. ops
  in
  120_000. +. ops_cost per_page_ops
  +. (float_of_int queries_per_page *. ops_cost per_query_ops)

(* MySQL work per query, on the DB side. *)
let mysql_cpu_ns platform =
  let ops = [ K.Epoll; K.Socket_recv 180; K.File_read 4096; K.Socket_send 420 ] in
  3_000.
  +. List.fold_left
       (fun acc op -> acc +. Platform.syscall_ns ~coverage:Mysql.abom_coverage_auto platform op)
       0. ops

(* Network round trip PHP <-> MySQL between two single-core VMs on the
   same switch: wire RTT plus both stacks, both directions. *)
let db_roundtrip_ns c platform =
  Xc_cpu.Costs.lan_rtt_ns
  +. (2.
     *. Xc_net.Netpath.path_cost_ns (Platform.net_hops platform) ~bytes_len:420)
  +. (if c = U then rump_tcp_roundtrip_extra_ns else 0.)

(* Merged: the query crosses a Unix socket inside one container — two
   copies and two scheduler hand-offs (PHP -> MySQL -> PHP) per query. *)
let local_ipc_ns platform =
  2.
  *. (Platform.syscall_ns ~coverage:0.99 platform (K.Pipe_write 420)
     +. Platform.process_switch_ns platform)

let php_mysql c topology =
  match (c, topology) with
  | G, _ -> None (* Graphene does not support the PHP CGI server *)
  | U, Dedicated_merged -> None (* needs two processes in one instance *)
  | (U | X), _ ->
      let platform = platform_of c in
      let php = php_cpu_ns platform and mysql = mysql_cpu_ns platform in
      let per_page =
        match topology with
        | Shared | Dedicated ->
            php
            +. (float_of_int queries_per_page *. (db_roundtrip_ns c platform +. mysql))
        | Dedicated_merged ->
            php +. (float_of_int queries_per_page *. (local_ipc_ns platform +. mysql))
      in
      (* The PHP built-in server is single-threaded: one request at a
         time; each of the two PHP servers is its own pipeline.  In the
         Shared topology the single MySQL has capacity to spare, so both
         topologies are PHP-latency-bound. *)
      Some (2. *. 1e9 /. per_page)
