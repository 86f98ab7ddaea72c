(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5).  How fast the simulator itself runs is
   measured separately, by perf/xcperf (see perf/README.md).

   Usage:
     dune exec bench/main.exe                         # all paper experiments
     dune exec bench/main.exe -- --jobs 4             # same, 4 worker domains
     dune exec bench/main.exe table1 fig4             # a subset
     dune exec bench/main.exe smoke                   # tiny-duration sweep
     dune exec bench/main.exe csv                     # results/*.csv

   Experiments are independent deterministic simulations, so with
   --jobs N (or XC_JOBS=N) their cells fan out over N domains through
   the runner `xc` shares (Xc_suite.Run); stdout and every artifact
   are byte-identical to the sequential run.  Every experiment and its
   report live in Xc_suite.Experiments; this file holds the flags and
   the runner call.

   `csv` runs the plotted experiments (Table 1, Figures 3-5, 8 and 9)
   and writes each table of their reports to results/ID[_TITLE].csv at
   full precision instead of printing it.

   The runner records and writes the artifacts, one track per
   experiment (docs/TRACING.md, docs/METRICS.md):
     --trace[=FILE]       spans (default BENCH_trace.json, CSV by
                          extension) with two sidecars of the same
                          basename: .folded (flamegraph) and .tails
                          (p99 tails); --sample N keeps one event per
                          window of N per (cat,name) stream
     --timeseries[=FILE]  metric snapshots every --interval N sim-us
                          (default 50; default BENCH_timeseries.csv,
                          Chrome counter events unless FILE is .csv)
     --perfetto[=FILE]    both in one Chrome JSON (BENCH_perfetto.json)
     --alerts CAT/NAME>V[,CAT/NAME<V...]  checks every experiment's
                          snapshots; a firing rule is reported on
                          stderr and exits 1 (for CI gates). *)

module Registry = Xc_suite.Registry
module Run = Xc_suite.Run

(* The experiments `csv` writes, one file per table, into results/. *)
let csv_ids = [ "table1"; "fig3"; "fig4"; "fig5"; "fig8"; "fig9" ]

(* Built at start-up: this prices the hedging, cluster-scale and causal
   configs before the runner turns the ring on, so traced runs capture
   only the simulations' own spans. *)
let bench_experiments = Xc_suite.Experiments.bench ()
let smoke_experiments = Xc_suite.Experiments.smoke ()

(* ------------------------------------------------------------------ *)

let run_experiments ~jobs ~trace_out ~sample ~timeseries_out ~interval_us
    ~perfetto_out ~alert_rules experiments =
  let t0 = Unix.gettimeofday () in
  (* --perfetto wants both halves (spans and counter tracks); --alerts
     needs the snapshot series the rules are checked against. *)
  let outcomes =
    Run.run ~jobs experiments
      ?trace:(if trace_out <> None || perfetto_out <> None then Some sample else None)
      ?telemetry:
        (if timeseries_out <> None || perfetto_out <> None || alert_rules <> [] then
           Some (float_of_int interval_us *. 1e3)
         else None)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (o : Run.outcome) ->
      match String.split_on_char '/' o.name with
      | [ "csv"; id ] ->
          List.iter (Printf.printf "wrote %s\n")
            (Run.write_csvs ~dir:"results" ~id o.report)
      | _ -> print_string o.output)
    outcomes;
  (* One track per experiment.  --trace writes two sidecars next to the
     trace: the collapsed-stack flamegraph, and the p99 tail of every
     track that emitted request spans. *)
  let spans = List.map (fun (o : Run.outcome) -> (o.name, o.trace)) outcomes in
  let tails =
    if trace_out = None then []
    else
      match Run.tails ~pct:99. spans with
      | Ok tails -> tails
      | Error m ->
          Printf.eprintf "bench: %s\n" m;
          exit 1
  in
  let sidecar ext = Option.map (fun p -> Filename.remove_extension p ^ ext) trace_out in
  List.iter
    (Printf.eprintf "[bench] wrote %s\n%!")
    (Run.write ~spans ~tails
       ~series:(List.map (fun (o : Run.outcome) -> (o.name, o.telemetry)) outcomes)
       {
         Run.no_files with
         trace_out;
         folded_out = sidecar ".folded";
         tails_out = sidecar ".tails";
         timeseries_out;
         perfetto_out;
       });
  let alarm =
    alert_rules <> []
    && List.fold_left
         (fun acc (o : Run.outcome) ->
           let fs = Xc_sim.Metrics.firings ~rules:alert_rules o.telemetry in
           if fs <> [] then begin
             Printf.eprintf "[bench] %s:\n%s%!" o.name
               (Xc_sim.Metrics.render_firings fs);
             true
           end
           else acc)
         false outcomes
  in
  Printf.eprintf "[bench] %d experiment(s), %d domain(s), %.2fs wall\n%!"
    (List.length outcomes) jobs wall_s;
  if alarm then exit 1

let fail fmt = Printf.ksprintf (fun m -> prerr_string m; exit 2) fmt

(* The bench's flags, each spelt [--NAME V] or [--NAME=V]; a flag with
   a [default] takes its value only as [--NAME=V] and means the default
   when bare.  [expects] completes the error for a missing value. *)
type flag = {
  name : string;
  default : string option;
  expects : string;
  set : string -> unit;
}

let parse_flags flags args =
  let find arg =
    List.find_map
      (fun f ->
        let pre = "--" ^ f.name ^ "=" in
        let n = String.length pre in
        if arg = "--" ^ f.name then Some (f, None)
        else if String.length arg > n && String.sub arg 0 n = pre then
          Some (f, Some (String.sub arg n (String.length arg - n)))
        else None)
      flags
  in
  let rec go acc = function
    | [] -> List.rev acc
    | arg :: rest -> (
        match (find arg, rest) with
        | None, _ -> go (arg :: acc) rest
        | Some (f, Some v), _ ->
            f.set v;
            go acc rest
        | Some (({ default = Some d; _ } as f), None), _ ->
            f.set d;
            go acc rest
        | Some (f, None), v :: rest ->
            f.set v;
            go acc rest
        | Some (f, None), [] -> fail "bench: --%s expects %s\n" f.name f.expects)
  in
  go [] args

let () =
  (match Xc_cpu.Costs.validate () with
  | Ok () -> ()
  | Error violations ->
      prerr_endline "cost-model validation failed:";
      List.iter (fun v -> prerr_endline ("  - " ^ v)) violations;
      exit 1);
  (* A bad XC_JOBS fails loudly up front (even if --jobs overrides it
     later): a typo silently running sequentially is worse than an
     error. *)
  let jobs =
    match Xc_sim.Parallel.jobs_from_env () with
    | Ok n -> ref n
    | Error msg -> fail "bench: %s\n" msg
  in
  let trace_out = ref None
  and sample = ref 1
  and suites = ref []
  and timeseries_out = ref None
  and perfetto_out = ref None
  and alert_rules = ref []
  and interval_us = ref 50 in
  let positive what unit r s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> r := n
    | _ -> fail "bench: --%s expects a positive integer%s, got %S\n" what unit s
  in
  let value name set = { name; default = None; expects = "an argument"; set } in
  let path name default r =
    { name; default = Some default; expects = ""; set = (fun p -> r := Some p) }
  in
  let flags =
    [
      value "jobs" (fun s ->
          match Xc_sim.Parallel.jobs_of_string s with
          | Ok n -> jobs := n
          | Error _ ->
              fail
                "bench: --jobs expects a positive integer (or 0 for auto), got \
                 %S\n"
                s);
      path "trace" "BENCH_trace.json" trace_out;
      value "sample" (positive "sample" "" sample);
      path "timeseries" "BENCH_timeseries.csv" timeseries_out;
      path "perfetto" "BENCH_perfetto.json" perfetto_out;
      {
        (value "alerts" (fun s ->
             String.split_on_char ',' s
             |> List.iter (fun spec ->
                    match Xc_sim.Metrics.rule_of_string (String.trim spec) with
                    | Ok r -> alert_rules := !alert_rules @ [ r ]
                    | Error m -> fail "bench: --alerts: %s\n" m)))
        with
        expects = "CAT/NAME>V[,CAT/NAME<V...]";
      };
      value "suite" (fun name ->
          match Registry.find_named name with
          | Some suite ->
              suites :=
                ("suite:" ^ name, Run.suite suite) :: !suites
          | None ->
              fail
                "bench: --suite expects a named generic suite (%s), got %S%s\n"
                (String.concat " " Registry.named_names)
                name
                (if
                   List.mem_assoc name bench_experiments
                   || List.mem_assoc name smoke_experiments
                 then " (bench suites run as plain experiment names)"
                 else ""));
      value "interval" (positive "interval" " (sim-microseconds)" interval_us);
    ]
  in
  let names = parse_flags flags (List.tl (Array.to_list Sys.argv)) in
  let lookup name =
    if name = "smoke" then Some smoke_experiments
    else if name = "csv" then
      Some
        (List.map
           (fun id -> ("csv/" ^ id, List.assoc id bench_experiments))
           csv_ids)
    else
      match List.assoc_opt name bench_experiments with
      | Some f -> Some [ (name, f) ]
      | None -> (
          (* Smoke variants ("macro-smoke", "fig8sim-smoke", ...) are
             addressable individually, e.g. for the tier-1 trace
             determinism rule. *)
          match List.assoc_opt name smoke_experiments with
          | Some f -> Some [ (name, f) ]
          | None -> None)
  in
  let suites = List.rev !suites in
  let experiments =
    match (names, suites) with
    | [], [] -> bench_experiments
    | [], suites -> suites
    | names, suites ->
        List.concat_map
          (fun name ->
            match lookup name with
            | Some es -> es
            | None ->
                fail "unknown experiment %S; available: %s csv smoke %s\n" name
                  (String.concat " " (List.map fst bench_experiments))
                  (String.concat " "
                     (List.filter
                        (fun n -> not (List.mem_assoc n bench_experiments))
                        (List.map fst smoke_experiments))))
          names
        @ suites
  in
  run_experiments ~jobs:!jobs ~trace_out:!trace_out ~sample:!sample
    ~timeseries_out:!timeseries_out ~interval_us:!interval_us
    ~perfetto_out:!perfetto_out ~alert_rules:!alert_rules experiments
