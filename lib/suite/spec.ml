module Config = Xc_platforms.Config
module CS = Xc_platforms.Cluster_sim
module Table = Xc_sim.Table

type shape = Closed | Open | Cluster

type load = {
  shape : shape;
  connections : int;
  rate : float;
  nodes : int;
  containers : int;
  duration_ms : float;
  warmup_ms : float;
}

type capture = {
  trace : bool;
  sample : int;
  timeseries : bool;
  interval_us : int;
  tails : bool;
}

type t = {
  name : string;
  platform : Config.t;
  workload : string;
  load : load;
  seed : int;
  fidelity : CS.fidelity;
  capture : capture;
  whatif : (string * float) list;
  params : (string * string) list;
}

(* The Closed_loop.default_config numbers, so a bare [experiment] block
   means "the standard closed-loop point on the paper's system". *)
let default =
  {
    name = "experiment";
    platform = Config.make Config.X_container;
    workload = "nginx";
    load =
      {
        shape = Closed;
        connections = 32;
        rate = 0.5;
        nodes = 1;
        containers = 4;
        duration_ms = 2000.;
        warmup_ms = 200.;
      };
    seed = 42;
    fidelity = CS.Exact;
    capture =
      {
        trace = false;
        sample = 0;
        timeseries = false;
        interval_us = 0;
        tails = false;
      };
    whatif = [];
    params = [];
  }

(* The Figure 9 cluster point: [default]'s 4 containers x 5
   connections, 300 ms after 50 ms, seed 17. *)
let cluster =
  {
    default with
    load =
      {
        default.load with
        shape = Cluster;
        connections = 5;
        duration_ms = 300.;
        warmup_ms = 50.;
      };
    seed = 17;
  }

let duration_ns t = t.load.duration_ms *. 1e6
let warmup_ns t = t.load.warmup_ms *. 1e6

(* ------------------------------------------------------------------ *)
(* String forms                                                        *)

let shape_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Cluster -> "cluster"

let shape_of_string = function
  | "closed" -> Ok Closed
  | "open" -> Ok Open
  | "cluster" -> Ok Cluster
  | s -> Error (Printf.sprintf "unknown shape %S (closed, open, cluster)" s)

let fidelity_to_string = function
  | CS.Exact -> "exact"
  | CS.Fluid -> "fluid"
  | CS.Mixed { sample_rate } -> Printf.sprintf "mixed:%d" sample_rate

let fidelity_of_string s =
  match s with
  | "exact" -> Ok CS.Exact
  | "fluid" -> Ok CS.Fluid
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "mixed" -> (
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt rest with
          | Some n when n >= 1 -> Ok (CS.Mixed { sample_rate = n })
          | _ ->
              Error
                (Printf.sprintf
                   "mixed sample-rate must be a positive integer, got %S" rest))
      | _ ->
          Error
            (Printf.sprintf "unknown fidelity %S (exact, fluid, mixed:N)" s))

let runtimes =
  [
    ("docker", Config.Docker);
    ("gvisor", Config.Gvisor);
    ("clear-container", Config.Clear_container);
    ("xen-container", Config.Xen_container);
    ("x-container", Config.X_container);
    ("xen-hvm", Config.Xen_hvm);
    ("xen-pv", Config.Xen_pv);
    ("unikernel", Config.Unikernel);
    ("graphene", Config.Graphene);
  ]

let runtime_to_string r = fst (List.find (fun (_, r') -> r' = r) runtimes)

let runtime_of_string s =
  match List.assoc_opt s runtimes with
  | Some r -> Ok r
  | None ->
      Error
        (Printf.sprintf "unknown runtime %S (%s)" s
           (String.concat ", " (List.map fst runtimes)))

let clouds =
  [
    ("amazon", Config.Amazon_ec2);
    ("google", Config.Google_gce);
    ("local", Config.Local_cluster);
  ]

let cloud_to_string c = fst (List.find (fun (_, c') -> c' = c) clouds)

let cloud_of_string s =
  match List.assoc_opt s clouds with
  | Some c -> Ok c
  | None ->
      Error
        (Printf.sprintf "unknown cloud %S (%s)" s
           (String.concat ", " (List.map fst clouds)))

(* ------------------------------------------------------------------ *)
(* Field table                                                         *)

let err key fmt = Printf.ksprintf (fun m -> Error ("field " ^ key ^ ": " ^ m)) fmt

let parse_int key v =
  match int_of_string_opt (String.trim v) with
  | Some n -> Ok n
  | None -> err key "expects an integer, got %S" v

let parse_float key v =
  match float_of_string_opt (String.trim v) with
  | Some f when Float.is_finite f -> Ok f
  | _ -> err key "expects a finite number, got %S" v

let parse_bool key v =
  match String.trim v with
  | "true" -> Ok true
  | "false" -> Ok false
  | s -> err key "expects true or false, got %S" s

let ( let* ) = Result.bind
let prefix_err key = Result.map_error (fun m -> "field " ^ key ^ ": " ^ m)

(* One (getter, setter) pair per typed field, in canonical print
   order.  [set_field]/[fields]/[print_fields] all walk this table, so
   the parser, the cross-product expander and the canonical printer
   cannot drift apart. *)
let field_table :
    (string * (t -> string) * (t -> string -> (t, string) result)) list =
  [
    ( "runtime",
      (fun t -> runtime_to_string t.platform.Config.runtime),
      fun t v ->
        let* r = prefix_err "runtime" (runtime_of_string (String.trim v)) in
        Ok { t with platform = { t.platform with Config.runtime = r } } );
    ( "cloud",
      (fun t -> cloud_to_string t.platform.Config.cloud),
      fun t v ->
        let* c = prefix_err "cloud" (cloud_of_string (String.trim v)) in
        Ok { t with platform = { t.platform with Config.cloud = c } } );
    ( "patched",
      (fun t -> string_of_bool t.platform.Config.meltdown_patched),
      fun t v ->
        let* b = parse_bool "patched" v in
        Ok { t with platform = { t.platform with Config.meltdown_patched = b } }
    );
    ( "workload",
      (fun t -> t.workload),
      fun t v ->
        let v = String.trim v in
        if List.mem v Workload.names then Ok { t with workload = v }
        else
          err "workload" "unknown workload %S (%s)" v
            (String.concat ", " Workload.names) );
    ( "shape",
      (fun t -> shape_to_string t.load.shape),
      fun t v ->
        let* s = prefix_err "shape" (shape_of_string (String.trim v)) in
        Ok { t with load = { t.load with shape = s } } );
    ( "connections",
      (fun t -> string_of_int t.load.connections),
      fun t v ->
        let* n = parse_int "connections" v in
        Ok { t with load = { t.load with connections = n } } );
    ( "rate",
      (fun t -> Table.fmt_shortest t.load.rate),
      fun t v ->
        let* f = parse_float "rate" v in
        Ok { t with load = { t.load with rate = f } } );
    ( "nodes",
      (fun t -> string_of_int t.load.nodes),
      fun t v ->
        let* n = parse_int "nodes" v in
        Ok { t with load = { t.load with nodes = n } } );
    ( "containers",
      (fun t -> string_of_int t.load.containers),
      fun t v ->
        let* n = parse_int "containers" v in
        Ok { t with load = { t.load with containers = n } } );
    ( "duration_ms",
      (fun t -> Table.fmt_shortest t.load.duration_ms),
      fun t v ->
        let* f = parse_float "duration_ms" v in
        Ok { t with load = { t.load with duration_ms = f } } );
    ( "warmup_ms",
      (fun t -> Table.fmt_shortest t.load.warmup_ms),
      fun t v ->
        let* f = parse_float "warmup_ms" v in
        Ok { t with load = { t.load with warmup_ms = f } } );
    ( "seed",
      (fun t -> string_of_int t.seed),
      fun t v ->
        let* n = parse_int "seed" v in
        Ok { t with seed = n } );
    ( "fidelity",
      (fun t -> fidelity_to_string t.fidelity),
      fun t v ->
        let* f = prefix_err "fidelity" (fidelity_of_string (String.trim v)) in
        Ok { t with fidelity = f } );
    ( "trace",
      (fun t -> string_of_bool t.capture.trace),
      fun t v ->
        let* b = parse_bool "trace" v in
        Ok { t with capture = { t.capture with trace = b } } );
    ( "sample",
      (fun t -> string_of_int t.capture.sample),
      fun t v ->
        let* n = parse_int "sample" v in
        Ok { t with capture = { t.capture with sample = n } } );
    ( "timeseries",
      (fun t -> string_of_bool t.capture.timeseries),
      fun t v ->
        let* b = parse_bool "timeseries" v in
        Ok { t with capture = { t.capture with timeseries = b } } );
    ( "interval_us",
      (fun t -> string_of_int t.capture.interval_us),
      fun t v ->
        let* n = parse_int "interval_us" v in
        Ok { t with capture = { t.capture with interval_us = n } } );
    ( "tails",
      (fun t -> string_of_bool t.capture.tails),
      fun t v ->
        let* b = parse_bool "tails" v in
        Ok { t with capture = { t.capture with tails = b } } );
  ]

let field_names = List.map (fun (k, _, _) -> k) field_table

let set_field t key value =
  match List.find_opt (fun (k, _, _) -> k = key) field_table with
  | Some (_, _, set) -> set t value
  | None ->
      if String.length key > 6 && String.sub key 0 6 = "param." then
        let pk = String.sub key 6 (String.length key - 6) in
        if pk = "" then err key "empty param key"
        else if List.mem_assoc pk t.params then err key "duplicate param"
        else Ok { t with params = t.params @ [ (pk, String.trim value) ] }
      else if String.length key > 7 && String.sub key 0 7 = "whatif." then
        let mech = String.sub key 7 (String.length key - 7) in
        if List.mem_assoc mech t.whatif then err key "duplicate what-if"
        else
          let* scale = parse_float key value in
          let* () = prefix_err key (Xc_obs.Whatif.validate ~mech ~scale) in
          Ok { t with whatif = t.whatif @ [ (mech, scale) ] }
      else if key = "name" then
        err key "set by the [experiment NAME] section header"
      else
        err key "unknown field (known: %s, param.*, whatif.MECH)"
          (String.concat ", " field_names)

let fields t =
  List.map (fun (k, get, _) -> (k, get t)) field_table
  @ List.map (fun (m, s) -> ("whatif." ^ m, Table.fmt_shortest s)) t.whatif
  @ List.map (fun (k, v) -> ("param." ^ k, v)) t.params

let print_fields t =
  let base = fields default in
  List.filter
    (fun (k, v) ->
      match List.assoc_opt k base with Some d -> v <> d | None -> true)
    (fields t)

let param t k = List.assoc_opt k t.params

let param_int t k ~default =
  match param t k with
  | None -> Ok default
  | Some v -> parse_int ("param." ^ k) v

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let name_ok s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '/' | '=' | '+'
         | ':' | '-' ->
             true
         | _ -> false)
       s

let value_ok v =
  String.for_all (fun c -> c >= ' ' && c <> '\x7f') v && String.trim v = v

let validate t =
  let check cond key fmt =
    Printf.ksprintf
      (fun m -> if cond then Ok () else Error ("field " ^ key ^ ": " ^ m))
      fmt
  in
  let* () =
    check (name_ok t.name) "name"
      "%S: must be nonempty, using only [A-Za-z0-9._/=+:-]" t.name
  in
  let* () =
    check
      (List.mem t.workload Workload.names)
      "workload" "unknown workload %S" t.workload
  in
  let* () =
    check
      (t.load.connections >= 1 && t.load.connections <= 1_000_000)
      "connections" "must be in [1, 1000000] (got %d)" t.load.connections
  in
  let* () =
    check
      (t.load.rate > 0. && t.load.rate <= 10.)
      "rate" "must be in (0, 10] of capacity (got %s)"
      (Table.fmt_shortest t.load.rate)
  in
  let* () =
    check
      (t.load.nodes >= 1 && t.load.nodes <= 100_000)
      "nodes" "must be in [1, 100000] (got %d)" t.load.nodes
  in
  let* () =
    check
      (t.load.containers >= 1 && t.load.containers <= 10_000_000)
      "containers" "must be in [1, 10000000] (got %d)" t.load.containers
  in
  let* () =
    check
      (t.load.duration_ms > 0. && t.load.duration_ms <= 1e7)
      "duration_ms" "must be in (0, 1e7] (got %s)"
      (Table.fmt_shortest t.load.duration_ms)
  in
  let* () =
    check
      (t.load.warmup_ms >= 0. && t.load.warmup_ms < t.load.duration_ms)
      "warmup_ms" "must be in [0, duration_ms) (got %s)"
      (Table.fmt_shortest t.load.warmup_ms)
  in
  let* () = check (t.seed >= 0) "seed" "must be >= 0 (got %d)" t.seed in
  let* () =
    match t.fidelity with
    | CS.Exact | CS.Fluid -> Ok ()
    | CS.Mixed { sample_rate = n } ->
        check
          (n >= 1 && n <= 1_000_000)
          "fidelity" "mixed sample-rate must be in [1, 1000000] (got %d)" n
  in
  (* Tail attribution needs request spans, which the open loop and
     the fluid cluster tier never emit. *)
  let* () =
    match (t.capture.tails, t.load.shape, t.fidelity) with
    | true, Open, _ ->
        Error "field tails: shape = open emits no request spans to attribute"
    | true, Cluster, CS.Fluid ->
        Error
          "field tails: shape = cluster with fidelity = fluid emits no \
           request spans to attribute"
    | _ -> Ok ()
  in
  let* () =
    check
      (t.capture.sample >= 0 && t.capture.sample <= 1_000_000_000)
      "sample" "must be in [0, 1e9] (0 = unsampled, got %d)" t.capture.sample
  in
  let* () =
    check
      (t.capture.interval_us >= 0 && t.capture.interval_us <= 1_000_000_000)
      "interval_us" "must be in [0, 1e9] (0 = default, got %d)"
      t.capture.interval_us
  in
  let* () =
    List.fold_left
      (fun acc (mech, scale) ->
        let* () = acc in
        prefix_err
          ("whatif." ^ mech)
          (Xc_obs.Whatif.validate ~mech ~scale))
      (Ok ()) t.whatif
  in
  List.fold_left
    (fun acc (k, v) ->
      let* () = acc in
      let* () =
        check (name_ok k) ("param." ^ k)
          "param key must be nonempty, using only [A-Za-z0-9._/=+:-]"
      in
      check (value_ok v) ("param." ^ k)
        "value must be trimmed printable text (got %S)" v)
    (Ok ()) t.params
