(* Tests for the declarative experiment suite: generated specs survive
   the print -> parse round-trip byte for byte, cross products have
   the advertised cardinality and naming, the spec a bench artifact
   embeds reproduces the run it describes, and malformed input fails
   with named-field errors. *)

module Spec = Xc_suite.Spec
module Suite = Xc_suite.Suite
module Workload = Xc_suite.Workload
module Driver = Xc_suite.Driver
module Registry = Xc_suite.Registry
module CS = Xc_platforms.Cluster_sim

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (what ^ ": " ^ e)

let set spec k v = ok_exn (Printf.sprintf "set %s=%s" k v) (Spec.set_field spec k v)

let runtimes =
  [
    "docker"; "gvisor"; "clear-container"; "xen-container"; "x-container";
    "xen-hvm"; "xen-pv"; "unikernel"; "graphene";
  ]

let clouds = [ "amazon"; "google"; "local" ]
let shapes = [ "closed"; "open"; "cluster" ]
let fidelities = [ "exact"; "fluid"; "mixed:7"; "mixed:100" ]

(* ---------------- generators ---------------- *)

(* A valid spec, built through the same [set_field] write path the
   parser uses, so every generated value is expressible in the text
   form by construction. *)
let gen_spec =
  let open QCheck.Gen in
  let name_char =
    oneofl
      (List.concat
         [
           List.init 26 (fun i -> Char.chr (Char.code 'a' + i));
           List.init 10 (fun i -> Char.chr (Char.code '0' + i));
           [ '.'; '_'; '-' ];
         ])
  in
  let* name = string_size ~gen:name_char (int_range 1 12) in
  let* runtime = oneofl runtimes in
  let* cloud = oneofl clouds in
  let* patched = oneofl [ "true"; "false" ] in
  let* workload = oneofl Workload.names in
  let* shape = oneofl shapes in
  let* connections = int_range 1 999 in
  let* rate = oneofl [ "0.1"; "0.25"; "0.5"; "0.85"; "1" ] in
  let* nodes = int_range 1 9 in
  let* containers = int_range 1 99 in
  let* duration = oneofl [ "1"; "2.5"; "20"; "300"; "2000" ] in
  let* warmup_frac = oneofl [ 0.; 0.1; 0.25 ] in
  let* seed = int_range 0 9999 in
  let* fidelity = oneofl fidelities in
  let* trace = oneofl [ "true"; "false" ] in
  let* sample = int_range 0 1000 in
  let* timeseries = oneofl [ "true"; "false" ] in
  let* interval_us = int_range 0 100000 in
  (* Tails need request spans: never on open or fluid-cluster specs. *)
  let* tails =
    match (shape, fidelity) with
    | "open", _ | "cluster", "fluid" -> return "false"
    | _ -> oneofl [ "true"; "false" ]
  in
  let* n_params = int_range 0 2 in
  let warmup =
    Xc_sim.Table.fmt_shortest (warmup_frac *. float_of_string duration)
  in
  let spec = { Spec.default with Spec.name } in
  let spec = set spec "runtime" runtime in
  let spec = set spec "cloud" cloud in
  let spec = set spec "patched" patched in
  let spec = set spec "workload" workload in
  let spec = set spec "shape" shape in
  let spec = set spec "connections" (string_of_int connections) in
  let spec = set spec "rate" rate in
  let spec = set spec "nodes" (string_of_int nodes) in
  let spec = set spec "containers" (string_of_int containers) in
  let spec = set spec "duration_ms" duration in
  let spec = set spec "warmup_ms" warmup in
  let spec = set spec "seed" (string_of_int seed) in
  let spec = set spec "fidelity" fidelity in
  let spec = set spec "trace" trace in
  let spec = set spec "sample" (string_of_int sample) in
  let spec = set spec "timeseries" timeseries in
  let spec = set spec "interval_us" (string_of_int interval_us) in
  let spec = set spec "tails" tails in
  let spec =
    List.fold_left
      (fun s i -> set s (Printf.sprintf "param.k%d" i) (Printf.sprintf "v%d" i))
      spec
      (List.init n_params (fun i -> i))
  in
  return spec

let arb_spec = QCheck.make ~print:(fun s -> Suite.print { Suite.name = "t"; specs = [ s ] }) gen_spec

(* ---------------- properties ---------------- *)

let prop_round_trip =
  QCheck.Test.make ~name:"print -> parse round-trips byte-identically"
    ~count:300 arb_spec
    (fun spec ->
      (* Distinct names: reuse the generated spec under two names. *)
      let s2 = { spec with Spec.name = spec.Spec.name ^ ".b" } in
      let suite = ok_exn "make" (Suite.make ~name:"round-trip" [ spec; s2 ]) in
      let text = Suite.print suite in
      let reparsed = ok_exn "parse" (Suite.parse text) in
      Suite.print reparsed = text
      && reparsed.Suite.name = "round-trip"
      && reparsed.Suite.specs = suite.Suite.specs)

let prop_cross_cardinality =
  QCheck.Test.make ~name:"cross product: cardinality, dedup, distinct names"
    ~count:200
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 3) (oneofl runtimes))
        (list_of_size (Gen.int_range 1 3) (int_range 1 200))
        (list_of_size (Gen.int_range 1 3) (oneofl Workload.names)))
    (fun (rts, conns, wls) ->
      let distinct l =
        List.length
          (List.fold_left (fun a v -> if List.mem v a then a else v :: a) [] l)
      in
      let axes =
        [
          ("runtime", rts);
          ("connections", List.map string_of_int conns);
          ("workload", wls);
        ]
      in
      let base = { Spec.default with Spec.name = "grid" } in
      let specs = ok_exn "cross" (Suite.cross_axes ~base axes) in
      let expected = distinct rts * distinct conns * distinct wls in
      let names = List.map (fun (s : Spec.t) -> s.Spec.name) specs in
      List.length specs = expected
      && distinct names = List.length names
      && ok_exn "suite of grid" (Suite.make ~name:"grid" specs)
           |> fun su -> List.length su.Suite.specs = expected)

let prop_artifact_spec_reproduces =
  QCheck.Test.make
    ~name:"embedded spec re-runs to the same events count and row" ~count:12
    QCheck.(
      triple (oneofl runtimes) (oneofl [ "closed"; "open" ]) (int_range 1 16))
    (fun (runtime, shape, connections) ->
      let spec =
        { Spec.default with Spec.name = "repro" }
        |> fun s ->
        set s "runtime" runtime |> fun s ->
        set s "shape" shape |> fun s ->
        set s "connections" (string_of_int connections) |> fun s ->
        set s "duration_ms" "2" |> fun s -> set s "warmup_ms" "0.2"
      in
      let run s =
        let e0 = Xc_sim.Engine.domain_events () in
        let row = Driver.run s in
        (Xc_sim.Engine.domain_events () - e0, row)
      in
      let events1, row1 = run spec in
      (* [xc suite show] prints canonical text; a fresh process parses
         it back and re-runs.  Here: same process, fresh parse. *)
      let text =
        Suite.print (ok_exn "make" (Suite.make ~name:"artifact" [ spec ]))
      in
      let reparsed = ok_exn "parse" (Suite.parse text) in
      let events2, row2 = run (List.hd reparsed.Suite.specs) in
      events1 = events2 && events1 > 0 && row1 = row2)

(* ---------------- unit tests ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_error what pat = function
  | Ok _ -> Alcotest.fail (what ^ ": expected an error")
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S (got %S)" what pat e)
        true (contains e pat)

let test_validation_errors () =
  let parse = Suite.parse in
  check_error "unknown runtime" "field runtime"
    (parse "[experiment e]\nruntime = frobnicator\n");
  check_error "unknown workload" "field workload"
    (parse "[experiment e]\nworkload = doom\n");
  check_error "unknown fidelity" "field fidelity"
    (parse "[experiment e]\nfidelity = turbo\n");
  check_error "unknown field" "field frob"
    (parse "[experiment e]\nfrob = 1\n");
  check_error "kind is not a field" "field kind: unknown field"
    (parse "[experiment e]\nkind = fig3\n");
  check_error "connections range" "field connections"
    (parse "[experiment e]\nconnections = 0\n");
  check_error "mixed sample-rate" "sample-rate"
    (parse "[experiment e]\nfidelity = mixed:0\n");
  check_error "duplicate names" "duplicate experiment name"
    (parse "[experiment e]\nseed = 1\n[experiment e]\nseed = 2\n");
  check_error "duplicate field" "duplicate field"
    (parse "[experiment e]\nseed = 1\nseed = 2\n");
  check_error "line numbers in gather errors" "line 2"
    (parse "[experiment e]\nnot a kv line\n");
  check_error "matrix empty value" "empty value"
    (parse "[matrix m]\nruntime = docker,,gvisor\n");
  check_error "key before section" "before the first"
    (parse "runtime = docker\n[experiment e]\n");
  check_error "warmup bound" "field warmup_ms"
    (parse "[experiment e]\nduration_ms = 10\nwarmup_ms = 10\n");
  check_error "tails on the open loop" "field tails"
    (parse "[experiment e]\nshape = open\ntails = true\n");
  check_error "tails on the fluid tier" "field tails"
    (parse "[experiment e]\nshape = cluster\nfidelity = fluid\ntails = true\n")

let test_comments_and_suite_line () =
  let suite =
    ok_exn "parse"
      (Suite.parse
         "# leading comment\nsuite = named\n\n[experiment a]\n# inner\nseed = \
          7\n")
  in
  Alcotest.(check string) "suite name" "named" suite.Suite.name;
  match suite.Suite.specs with
  | [ s ] -> Alcotest.(check int) "seed" 7 s.Spec.seed
  | _ -> Alcotest.fail "expected one spec"

let test_registry_named_generic () =
  (* Named suites must stay runnable by the generic driver alone:
     every spec uses a workload the driver resolves and a plain
     shape. *)
  List.iter
    (fun (name, (suite : Suite.t)) ->
      List.iter
        (fun (s : Spec.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s workload known" name s.Spec.name)
            true
            (Workload.find s.Spec.workload <> None))
        suite.Suite.specs)
    Registry.named

let test_driver_matches_engines () =
  (* The generic closed-loop interpretation is exactly the macro cell:
     same config knobs, same server builder. *)
  let spec =
    set { Spec.default with Spec.name = "d" } "duration_ms" "2" |> fun s ->
    set s "warmup_ms" "0.2" |> fun s -> set s "connections" "8"
  in
  let row = Driver.run spec in
  let direct =
    let platform = Xc_platforms.Platform.create spec.Spec.platform in
    let server =
      Xcontainers.Figures.server_for_public spec.Spec.platform platform `Nginx
    in
    Xc_platforms.Closed_loop.run
      {
        Xc_platforms.Closed_loop.default_config with
        connections = 8;
        duration_ns = 2e6;
        warmup_ns = 2e5;
      }
      server
  in
  Alcotest.(check (float 0.))
    "throughput identical" direct.Xc_platforms.Closed_loop.throughput_rps
    row.Driver.throughput_rps;
  Alcotest.(check (float 0.))
    "p99 identical" direct.Xc_platforms.Closed_loop.p99_ns row.Driver.p99_ns

let test_driver_prices_cluster () =
  (* Three nodes: each is [config_of_platform] at the spec's load, in
     the spec's window, node i seeded seed + i. *)
  let spec =
    {
      Spec.cluster with
      Spec.platform = Xc_platforms.Config.make Xc_platforms.Config.Docker;
      load =
        {
          Spec.cluster.Spec.load with
          Spec.nodes = 3;
          containers = 6;
          connections = 2;
          duration_ms = 40.;
          warmup_ms = 8.;
        };
      seed = 5;
    }
  in
  let direct =
    CS.config_of_platform ~containers:6 ~connections:2
      (Xc_platforms.Platform.create spec.Spec.platform)
  in
  (* Every field but the window, the seed and the switch closure. *)
  let priced (c : CS.config) =
    ( (c.CS.mode, c.CS.pcpus, c.CS.containers, c.CS.connections_per_container),
      (c.CS.stage_cpu_ns, c.CS.client_rtt_ns, c.CS.process_switch_ns),
      (c.CS.request_mech, c.CS.lb) )
  in
  let nodes = Driver.cluster spec in
  Alcotest.(check (list int)) "node seeds" [ 5; 6; 7 ]
    (List.map (fun (c : CS.config) -> c.CS.seed) nodes);
  List.iter
    (fun (c : CS.config) ->
      Alcotest.(check (float 0.)) "duration" 4e7 c.CS.duration_ns;
      Alcotest.(check (float 0.)) "warmup" 8e6 c.CS.warmup_ns;
      Alcotest.(check bool) "priced as config_of_platform" true (priced c = priced direct);
      Alcotest.(check (float 0.))
        "container switch" (direct.CS.container_switch_ns ~runnable:0)
        (c.CS.container_switch_ns ~runnable:0))
    nodes;
  (* The node fold: a NaN p99 (a fluid node) never wins the worst. *)
  let node throughput_rps mean_latency_ns p99_latency_ns =
    {
      CS.throughput_rps;
      mean_latency_ns;
      p99_latency_ns;
      container_switches = 0;
      process_switches = 0;
      switch_overhead_ns = 0.;
      busy_fraction = 0.5;
    }
  in
  let row =
    Driver.cluster_row spec
      [ node 100. 2e6 Float.nan; node 200. 4e6 9e6; node 300. 3e6 7e6 ]
  in
  Alcotest.(check (float 0.)) "throughputs sum" 600. row.Driver.throughput_rps;
  Alcotest.(check (float 0.)) "means average" 3e6 row.Driver.mean_ns;
  Alcotest.(check (float 0.)) "worst non-NaN p99" 9e6 row.Driver.p99_ns;
  Alcotest.(check bool) "no p50" true (Float.is_nan row.Driver.p50_ns);
  Alcotest.(check bool) "NaN when no node has a tail" true
    (Float.is_nan (Driver.cluster_row spec [ node 1. 1. Float.nan ]).Driver.p99_ns)

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let suites =
  [
    ( "suite.spec",
      [
        Alcotest.test_case "validation errors name fields" `Quick
          test_validation_errors;
        Alcotest.test_case "comments and suite line" `Quick
          test_comments_and_suite_line;
        Alcotest.test_case "named suites are generic" `Quick
          test_registry_named_generic;
        Alcotest.test_case "driver matches hand-coded engines" `Quick
          test_driver_matches_engines;
        Alcotest.test_case "driver prices cluster nodes" `Quick
          test_driver_prices_cluster;
      ]
      @ qsuite
          [ prop_round_trip; prop_cross_cardinality; prop_artifact_spec_reproduces ]
    );
  ]
