(* The named generic suites: runnable by the generic driver alone
   (`xc suite run NAME`, `bench --suite NAME`).

   Everything here is validated at module init: a malformed entry
   raises [Invalid_argument] before any experiment can run. *)

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
           [
             ("workload", Workload.names);
             ("runtime", [ "docker"; "xen-container"; "x-container"; "gvisor" ]);
           ]) );
    (* The Figure 9 load-balancing matrix at the Cluster_sim.default_config
       window (300 ms after 50 ms, seed 17). *)
    ( "fig9-matrix",
      suite "fig9-matrix"
        (cross "fig9"
           [
             ("shape", "cluster");
             ("duration_ms", "300");
             ("warmup_ms", "50");
             ("seed", "17");
             ("containers", "4");
           ]
           [
             ("runtime", [ "docker"; "gvisor"; "xen-container"; "x-container" ]);
             ("connections", [ "1"; "5" ]);
           ]) );
  ]

let named_names = List.map fst named
let find_named n = List.assoc_opt n named
