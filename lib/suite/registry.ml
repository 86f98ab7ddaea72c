(* The suite registry: every bench experiment as declarative data,
   plus the generically-runnable named suites.

   This is the bench's experiment table: the bench maps each
   [bench]/[smoke] suite to its printer, which interprets the specs
   into cells; the specs
   here carry the actual grids — apps x clouds, fractions x runtimes,
   hedging points, fleet shapes — so adding a point is a data edit.
   Values that the bespoke drivers hard-code (cluster duration 300 ms,
   warmup 50 ms, seed 17 from [Cluster_sim.default_config]) are
   recorded on the specs so the printed spec is the truth.

   Everything here is validated at module init: a malformed registry
   entry raises [Invalid_argument] before any experiment can run. *)

let ok what = function
  | Ok v -> v
  | Error m -> invalid_arg (Printf.sprintf "Registry.%s: %s" what m)

let spec name fields =
  List.fold_left
    (fun s (k, v) -> ok name (Spec.set_field s k v))
    { Spec.default with Spec.name = name }
    fields

let cross name base axes = ok name (Suite.cross_axes ~base:(spec name base) axes)
let suite name specs = ok name (Suite.make ~name specs)

(* A single-cell experiment: one spec whose kind names the bespoke driver. *)
let single name = suite name [ spec name [ ("kind", name) ] ]

(* The Cluster_sim.default_config numbers every cluster-kind driver
   inherits (duration 3e8 ns, warmup 5e7 ns, seed 17). *)
let cluster_base =
  [
    ("shape", "cluster");
    ("duration_ms", "300");
    ("warmup_ms", "50");
    ("seed", "17");
  ]

let fig3 =
  suite "fig3"
    (cross "fig3"
       [ ("kind", "fig3") ]
       [
         ("workload", [ "nginx"; "memcached"; "redis" ]);
         ("cloud", [ "amazon"; "google" ]);
       ])

let latency =
  suite "latency"
    (cross "latency"
       [ ("kind", "latency"); ("shape", "open") ]
       [
         ("rate", [ "0.3"; "0.5"; "0.7"; "0.85"; "0.95" ]);
         ("runtime", [ "docker"; "x-container" ]);
       ])

let macro_runtimes = [ "docker"; "xen-container"; "x-container"; "gvisor" ]

let macro_extra =
  suite "macro-extra"
    (cross "macro-extra"
       [ ("kind", "macro-cell"); ("connections", "96") ]
       [ ("workload", Workload.names); ("runtime", macro_runtimes) ])

let hedging =
  let oracle =
    cross "oracle"
      [ ("kind", "hedging-oracle") ]
      [
        ("param.utilization", [ "0.3"; "0.6" ]);
        ("param.clones", [ "1"; "2"; "3" ]);
      ]
  in
  let policy =
    cross "policy"
      [ ("kind", "hedging-policy") ]
      [
        ("param.policy", [ "round-robin"; "least-loaded"; "po2c"; "jsq" ]);
        ("param.clones", [ "1"; "2" ]);
      ]
  in
  let cbase =
    cluster_base
    @ [ ("kind", "hedging-cluster"); ("containers", "4"); ("connections", "5") ]
  in
  let cluster =
    [
      spec "cluster/baseline" cbase;
      spec "cluster/least-loaded-d1"
        (cbase @ [ ("param.policy", "least-loaded"); ("param.clones", "1") ]);
      spec "cluster/least-loaded-d2"
        (cbase @ [ ("param.policy", "least-loaded"); ("param.clones", "2") ]);
    ]
  in
  suite "hedging" (oracle @ policy @ cluster)

(* The cluster-scale family: a fluid fleet (heterogeneous node sizes
   cycling [param.sizes], sharded for --jobs-invariant event counts),
   exact-vs-fluid differential points, and a mixed-tier cell. *)
let cluster_scale_suite name ~fleet_nodes ~fleet_shards ~diffs ~mixed_containers
    =
  let fleet =
    spec "fleet"
      (cluster_base
      @ [
          ("kind", "cluster-fleet");
          ("nodes", string_of_int fleet_nodes);
          ("containers", "1000");
          ("connections", "5");
          ("fidelity", "fluid");
          ("param.shards", string_of_int fleet_shards);
          ("param.sizes", "800:900:1000:1100:1200");
        ])
  in
  let diff (mode, n, conns) =
    spec
      (Printf.sprintf "diff/%s-%d-%d" mode n conns)
      (cluster_base
      @ [
          ("kind", "cluster-diff");
          ("param.mode", mode);
          ("containers", string_of_int n);
          ("connections", string_of_int conns);
        ])
  in
  let mixed =
    spec "mixed"
      (cluster_base
      @ [
          ("kind", "cluster-mixed");
          ("containers", string_of_int mixed_containers);
          ("fidelity", "mixed:10");
        ])
  in
  suite name ((fleet :: List.map diff diffs) @ [ mixed ])

let cluster_scale =
  cluster_scale_suite "cluster-scale" ~fleet_nodes:1000 ~fleet_shards:16
    ~diffs:[ ("hier", 8, 5); ("hier", 400, 5); ("flat", 400, 5); ("hier", 64, 1) ]
    ~mixed_containers:200

(* The causal what-if grid: per (runtime x mechanism), predict the
   virtual speedup from the baseline's attribution and validate it
   against an actual re-priced rerun.  The light cells (1 connection)
   are the regime where the linear prediction holds; the knee cells
   (5 connections, the fig9 queueing regime) are kept on purpose to
   show where it breaks. *)
let causal =
  let base =
    [
      ("kind", "causal-point");
      ("shape", "cluster");
      ("duration_ms", "100");
      ("warmup_ms", "20");
      ("seed", "17");
      ("containers", "4");
      ("connections", "1");
    ]
  in
  let causal_runtimes = [ "docker"; "x-container" ] in
  let light =
    List.concat_map
      (fun rt ->
        List.map
          (fun mech ->
            spec
              (Printf.sprintf "%s/%s" rt mech)
              (base @ [ ("runtime", rt); ("whatif." ^ mech, "0.7") ]))
          [ "syscall-entry"; "ctx-switch"; "net.hop" ])
      causal_runtimes
  in
  let knee =
    List.map
      (fun rt ->
        spec
          (Printf.sprintf "%s/syscall-entry/knee" rt)
          (base
          @ [
              ("runtime", rt);
              ("connections", "5");
              ("whatif.syscall-entry", "0.7");
            ]))
      causal_runtimes
  in
  suite "causal" (light @ knee)

let bench =
  [
    ("table1", single "table1");
    ("fig3", fig3);
    ("fig4", single "fig4");
    ("fig5", single "fig5");
    ("fig6", single "fig6");
    ("fig8", single "fig8");
    ("fig9", single "fig9");
    ("boot", single "boot");
    ("ablation", single "ablation");
    ("fig8sim", single "fig8sim");
    ("security", single "security");
    ("migration", single "migration");
    ("clone", single "clone");
    ("latency", latency);
    ("coldstart", single "coldstart");
    ("macro-extra", macro_extra);
    ("build-bench", single "build-bench");
    ("density", single "density");
    ("hedging", hedging);
    ("cluster-scale", cluster_scale);
    ("causal", causal);
  ]

let bench_names = List.map fst bench

(* Bench experiments cheap enough to run unchanged in the smoke list. *)
let smoke_cheap =
  [
    "fig4"; "fig5"; "fig6"; "fig8"; "fig9"; "boot"; "ablation"; "security";
    "migration"; "clone"; "coldstart"; "build-bench"; "density";
  ]

let smoke =
  [
    ( "table1-smoke",
      suite "table1-smoke"
        [
          spec "table1-smoke"
            [ ("kind", "table1-smoke"); ("param.invocations", "2000") ];
        ] );
    ( "macro-smoke",
      suite "macro-smoke"
        (cross "macro-smoke"
           [ ("kind", "macro-smoke"); ("duration_ms", "20"); ("warmup_ms", "2") ]
           [ ("runtime", [ "docker"; "x-container" ]) ]) );
    ( "latency-smoke",
      suite "latency-smoke"
        [
          spec "latency-smoke"
            [
              ("kind", "latency-smoke");
              ("shape", "open");
              ("rate", "0.25");
              ("duration_ms", "20");
              ("warmup_ms", "2");
            ];
        ] );
    ( "fig8sim-smoke",
      suite "fig8sim-smoke"
        [
          spec "fig8sim-smoke"
            (cluster_base
            @ [ ("kind", "fig8sim-smoke"); ("duration_ms", "20"); ("warmup_ms", "2") ]
            ) ;
        ] );
    ( "cluster-smoke",
      cluster_scale_suite "cluster-smoke" ~fleet_nodes:64 ~fleet_shards:8
        ~diffs:[ ("hier", 8, 5) ] ~mixed_containers:32 );
  ]

let smoke_names = smoke_cheap @ List.map fst smoke

(* ------------------------------------------------------------------ *)
(* Named generic suites: runnable by the generic driver alone
   (`xc suite run NAME`, `bench --suite NAME`).                        *)

let named =
  [
    ( "smoke",
      suite "smoke"
        (cross "closed"
           [
             ("connections", "8");
             ("duration_ms", "20");
             ("warmup_ms", "2");
             ("timeseries", "true");
           ]
           [ ("runtime", [ "docker"; "gvisor"; "x-container" ]) ]
        @ [
            spec "open"
              [
                ("shape", "open");
                ("rate", "0.5");
                ("duration_ms", "20");
                ("warmup_ms", "2");
              ];
            spec "cluster"
              [
                ("shape", "cluster");
                ("containers", "4");
                ("connections", "5");
                ("duration_ms", "20");
                ("warmup_ms", "2");
                ("seed", "17");
                ("trace", "true");
                ("tails", "true");
              ];
          ]) );
    ( "macro",
      suite "macro"
        (cross "macro"
           [ ("connections", "96") ]
           [ ("workload", Workload.names); ("runtime", macro_runtimes) ]) );
    ( "fig9-matrix",
      suite "fig9-matrix"
        (cross "fig9"
           (cluster_base @ [ ("containers", "4") ])
           [
             ("runtime", [ "docker"; "gvisor"; "xen-container"; "x-container" ]);
             ("connections", [ "1"; "5" ]);
           ]) );
  ]

let named_names = List.map fst named

let find_bench n = List.assoc_opt n bench
let find_smoke n = List.assoc_opt n smoke
let find_named n = List.assoc_opt n named

(* The canonical spec text for any registry suite, bench or named —
   what [xc suite show] prints. *)
let spec_text n =
  match find_bench n with
  | Some s -> Some (Suite.print s)
  | None -> (
      match find_smoke n with
      | Some s -> Some (Suite.print s)
      | None -> Option.map Suite.print (find_named n))
