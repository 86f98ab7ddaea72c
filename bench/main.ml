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
   the runner `xc` shares (Xc_suite.Run); output is byte-identical to
   the sequential run.  Every experiment and its report live in
   Xc_suite.Experiments; this file holds the flags, the runner call
   and the artifact writers.

   `csv` runs the plotted experiments (Table 1, Figures 3-5, 8 and 9)
   and writes each table of their reports to results/ID[_TITLE].csv at
   full precision instead of printing it.

   --trace[=FILE] additionally records an Xc_trace event trace of
   every experiment (one track per experiment, Chrome trace-event JSON
   or CSV by extension, default BENCH_trace.json) plus a collapsed
   stack flamegraph sidecar (same basename, .folded).  --sample N
   keeps one event per window of N per (cat,name) stream so long runs
   fit one ring.  Trace, folded sidecar and stdout are all
   deterministic and byte-identical at any --jobs.

   --timeseries[=FILE] samples the metric registry every --interval N
   simulated microseconds (default 50) and writes the per-experiment
   time-series (default BENCH_timeseries.csv, Chrome counter events
   when FILE doesn't end in .csv) — also byte-identical at any
   --jobs.

   --perfetto[=FILE] enables both captures and writes one combined
   container (span tracks + counter tracks per experiment, default
   BENCH_perfetto.json) for a single Perfetto/chrome://tracing load.

   --alerts CAT/NAME>V[,CAT/NAME<V...] enables telemetry snapshots and
   checks the rules against every experiment's series after the run;
   any firing is reported to stderr and exits 1 (for CI gates). *)

module Registry = Xc_suite.Registry
module Run = Xc_suite.Run

(* The experiments `csv` writes, one file per table, into results/. *)
let csv_ids = [ "table1"; "fig3"; "fig4"; "fig5"; "fig8"; "fig9" ]

(* Built at start-up: this prices the hedging, cluster-scale and causal
   configs before --trace can turn the ring on, so traced runs capture
   only the simulations' own spans. *)
let bench_experiments = Xc_suite.Experiments.bench ()
let smoke_experiments = Xc_suite.Experiments.smoke ()

(* ------------------------------------------------------------------ *)

let run_experiments ~jobs ~trace_out ~sample ~timeseries_out ~interval_us
    ~perfetto_out ~alert_rules experiments =
  (* --perfetto wants both halves (spans and counter tracks); --alerts
     needs the snapshot series the rules are checked against. *)
  if trace_out <> None || perfetto_out <> None then
    Xc_trace.Trace.enable ~sample ();
  if timeseries_out <> None || perfetto_out <> None || alert_rules <> [] then
    Xc_sim.Metrics.enable ~interval_ns:(float_of_int interval_us *. 1e3) ();
  let t0 = Unix.gettimeofday () in
  let outcomes = Run.run ~jobs experiments in
  let wall_s = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (o : Run.outcome) ->
      match String.split_on_char '/' o.name with
      | [ "csv"; id ] ->
          List.iter (Printf.printf "wrote %s\n")
            (Run.write_csvs ~dir:"results" ~id o.report)
      | _ -> print_string o.output)
    outcomes;
  let dropped =
    List.fold_left
      (fun acc (o : Run.outcome) -> acc + o.trace.Xc_trace.Trace.dropped)
      0 outcomes
  in
  (match timeseries_out with
  | None -> ()
  | Some path ->
      (* One track per experiment, counter events on the sim clock; CSV
         or Chrome JSON by extension.  Each experiment's telemetry was
         captured against a fresh registry, so the file is byte-identical
         at any --jobs (tier-1 cmps it). *)
      Run.write_timeseries ~path
        (List.map (fun (o : Run.outcome) -> (o.name, o.telemetry)) outcomes);
      let snaps =
        List.fold_left
          (fun a (o : Run.outcome) ->
            a + List.length o.telemetry.Xc_sim.Metrics.snapshots)
          0 outcomes
      in
      Printf.eprintf
        "[bench] wrote %s (%d snapshot(s) at %dus across %d experiment(s))\n%!"
        path snaps interval_us (List.length outcomes));
  (match trace_out with
  | None -> ()
  | Some path ->
      (* The trace plus two sidecars, all byte-identical at any --jobs
         (tier-1 cmps each): the collapsed-stack flamegraph, and for
         every track that emitted request spans, the p99 tail's
         per-mechanism breakdown as a tails CSV. *)
      let tracks =
        List.map (fun (o : Run.outcome) -> (o.name, o.trace)) outcomes
      in
      let tails =
        match Run.tails ~pct:99. tracks with
        | Ok tails -> tails
        | Error m ->
            Printf.eprintf "bench: %s\n" m;
            exit 1
      in
      let sidecar ext = Filename.remove_extension path ^ ext in
      Run.write_trace ~path tracks;
      Run.write_folded ~path:(sidecar ".folded") tracks;
      Run.write_tails ~path:(sidecar ".tails") tails;
      Printf.eprintf "[bench] wrote %s (%d request-emitting track(s))\n%!"
        (sidecar ".tails") (List.length tails);
      let total =
        List.fold_left
          (fun a (_, (c : Xc_trace.Trace.captured)) -> a + List.length c.events)
          0 tracks
      in
      if sample > 1 then begin
        let seen, kept =
          List.fold_left
            (fun acc (_, (c : Xc_trace.Trace.captured)) ->
              List.fold_left
                (fun (s, k) (st : Xc_trace.Trace.Stream.t) ->
                  (s + st.seen, k + st.kept))
                acc c.streams)
            (0, 0) tracks
        in
        Printf.eprintf
          "[bench] sampling stride %d: kept %d of %d offered events\n%!" sample
          kept seen
      end;
      Printf.eprintf "[bench] wrote %s and %s (%d trace events, %d dropped)\n%!"
        path (sidecar ".folded") total dropped);
  (match perfetto_out with
  | None -> ()
  | Some path ->
      (* One combined container: each experiment's span track followed
         by its telemetry counter track, so Perfetto shows flame and
         time-series lanes side by side.  Same byte-identical-at-any
         --jobs contract as the separate artifacts. *)
      let tracks =
        List.concat_map
          (fun (o : Run.outcome) ->
            let counters = Xc_sim.Metrics.to_trace_events o.telemetry in
            ((o.name, o.trace.Xc_trace.Trace.events)
            :: (if counters = [] then [] else [ (o.name ^ "/metrics", counters) ])))
          outcomes
      in
      Xc_trace.Export.to_file ~dropped ~path tracks;
      Printf.eprintf "[bench] wrote %s (%d combined track(s))\n%!" path
        (List.length tracks));
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
