(* xcperf: the simulator measured from outside.

   The parent runs each workload in a fresh child process, one at a
   time, so allocation counts start from the same state every time and
   load never exceeds one domain (the parallel probe, which is not
   gated, uses at most the host's recommended domain count).  A child
   sets up several times, runs one warm-up pass whose allocation and
   GC counters are the exact ones reported, then timed passes until
   both --passes and --seconds are satisfied.  With --trace 1 it
   alternates untraced and traced passes, records the benchmark's own
   spans around each layer call, and reports the per-layer metrics
   instead of the end-to-end ones.

   Usage:
     xcperf [--workload W]... [--seed S] [--passes P] [--seconds T]
            [--trace 0|1] [--spans FILE] [--runs N] [--json FILE]
            [--smoke] [--fingerprints]
     xcperf compare A.jsonl B.jsonl *)

module Engine = Xc_sim.Engine

(* ------------------------------------------------------------------ *)
(* Metric definitions, compiled in from BENCHMARK.json.                *)

type metric = { name : string; unit_ : string; better : string; bound : float option }

let end_to_end, per_layer, defined_workloads =
  let d = Json.parse Definition.text in
  let metric j =
    {
      name = Json.(to_string (member "name" j));
      unit_ = Json.(to_string (member "unit" j));
      better = Json.(to_string (member "better" j));
      bound = Option.map Json.to_float (List.assoc_opt "bound" (Json.to_obj j));
    }
  in
  let metrics k = List.map metric (Json.to_list (Json.member k d)) in
  ( metrics "end_to_end",
    metrics "per_layer",
    List.map
      (fun w -> Json.(to_string (member "name" w)))
      (Json.to_list (Json.member "workloads" d)) )

let () =
  let ours = List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all in
  if ours <> defined_workloads then
    failwith "xcperf: BENCHMARK.json workloads differ from the compiled workloads"

(* ------------------------------------------------------------------ *)
(* Small statistics.                                                   *)

let sorted l = List.sort Float.compare l

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them
   (the default "exclusive" method). *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else Float.nan in
    (v, v)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let seconds_since t0 = Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* Child: one workload, one fresh process.                             *)

type pass = {
  wall : float;
  ops : int;
  words : float;  (** minor words over the whole pass *)
  cell_ops : int array;
  cell_s : float array;
  cell_words : float array;
  outcomes : Workloads.outcome option array;  (** [None] if the cell raised *)
}

let fingerprint (o : Workloads.outcome) =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) o.Workloads.fields)

(* perf/expected/seed42.txt: one "WORKLOAD CELL FINGERPRINT" line per cell. *)
let expected =
  lazy
    (let t = Hashtbl.create 128 in
     List.iter
       (fun line ->
         match String.split_on_char ' ' line with
         | w :: c :: fields -> Hashtbl.replace t (w, c) (String.concat " " fields)
         | _ -> ())
       (String.split_on_char '\n' Expected.seed42);
     t)

let run_pass (prepared : Workloads.prepared) =
  let cells = Array.of_list prepared.Workloads.cells in
  let n = Array.length cells in
  let cell_ops = Array.make n 0 and cell_s = Array.make n 0. in
  let cell_words = Array.make n 0. and outcomes = Array.make n None in
  let t0 = Spans.now () and w0 = Gc.minor_words () and e0 = Engine.domain_events () in
  Workloads.observed prepared ~trace:true ~metrics:true (fun () ->
      Array.iteri
        (fun i (c : Workloads.cell) ->
          Spans.record ~cell:c.Workloads.name "cell" (fun () ->
              let c0 = Spans.now () and cw = Gc.minor_words () in
              let ce = Engine.domain_events () in
              (outcomes.(i) <-
                 (try Some (c.Workloads.run ())
                  with e ->
                    Printf.eprintf "xcperf: %s: raised %s\n%!" c.Workloads.name
                      (Printexc.to_string e);
                    None));
              cell_ops.(i) <- Engine.domain_events () - ce;
              cell_words.(i) <- Gc.minor_words () -. cw;
              cell_s.(i) <- seconds_since c0))
        cells);
  {
    wall = seconds_since t0;
    ops = Engine.domain_events () - e0;
    words = Gc.minor_words () -. w0;
    cell_ops;
    cell_s;
    cell_words;
    outcomes;
  }

(* Failed cell-runs of the warm-up pass: exceptions, oracle
   violations and, on seed 42 at full size, fingerprint drift. *)
let check_reference ~workload ~against_expected (prepared : Workloads.prepared) p =
  List.mapi
    (fun i (c : Workloads.cell) ->
      let fail msg =
        Printf.eprintf "xcperf: %s %s: %s\n%!" workload c.Workloads.name msg;
        1
      in
      match p.outcomes.(i) with
      | None -> 1
      | Some o -> (
          match o.Workloads.oracle with
          | Error m -> fail m
          | Ok () ->
              if not against_expected then 0
              else
                match Hashtbl.find_opt (Lazy.force expected) (workload, c.Workloads.name) with
                | None -> fail "no seed-42 fingerprint in perf/expected/seed42.txt"
                | Some fp when fp <> fingerprint o ->
                    fail (Printf.sprintf "fingerprint %s, expected %s" (fingerprint o) fp)
                | Some _ -> 0))
    prepared.Workloads.cells
  |> List.fold_left ( + ) 0

(* Failed cell-runs of a later pass: anything not bit-identical to the
   warm-up pass. *)
let check_repeat ~workload (prepared : Workloads.prepared) ~reference p =
  List.mapi
    (fun i (c : Workloads.cell) ->
      let same =
        p.cell_ops.(i) = reference.cell_ops.(i)
        &&
        match (p.outcomes.(i), reference.outcomes.(i)) with
        | Some a, Some b -> fingerprint a = fingerprint b
        | _ -> false
      in
      if same then 0
      else begin
        Printf.eprintf "xcperf: %s %s: pass differs from the warm-up pass\n%!" workload
          c.Workloads.name;
        1
      end)
    prepared.Workloads.cells
  |> List.fold_left ( + ) 0

(* Host time of one pass: each cell's median over the passes, summed.
   Steadier than the median pass on a shared host, where a burst of
   interference inflates only the cells it overlaps. *)
let pass_time passes =
  let n = match passes with p :: _ -> Array.length p.cell_s | [] -> 0 in
  List.fold_left ( +. ) 0.
    (List.init n (fun i -> median (List.map (fun p -> p.cell_s.(i)) passes)))

let field name (o : Workloads.outcome option) =
  match o with
  | Some o -> Option.value (List.assoc_opt name o.Workloads.fields) ~default:0.
  | None -> 0.

(* [f i] summed over the cells whose work is done by [layer]. *)
let layer_sum (prepared : Workloads.prepared) layer f =
  List.fold_left ( +. ) 0.
    (List.mapi
       (fun i (c : Workloads.cell) -> if c.Workloads.layer = layer then f i else 0.)
       prepared.Workloads.cells)

(* One cell of an observed workload run plain, with telemetry only, and
   with tracing plus telemetry; the layer call's self time under each
   gives (trace, metrics) overhead in percent of the plain run. *)
let observability_probe (prepared : Workloads.prepared) =
  match (prepared.Workloads.observe, prepared.Workloads.cells) with
  | None, _ | _, [] -> (0., 0.)
  | Some _, c :: _ ->
      let run phase ~trace ~metrics =
        Spans.record ~phase ~cell:c.Workloads.name "probe" (fun () ->
            Workloads.observed prepared ~trace ~metrics (fun () -> ignore (c.Workloads.run ())));
        fst (Spans.totals () ~phase c.Workloads.layer)
      in
      let plain = run "probe.plain" ~trace:false ~metrics:false in
      let metrics = run "probe.metrics" ~trace:false ~metrics:true in
      let both = run "probe.traced" ~trace:true ~metrics:true in
      (100. *. (both -. metrics) /. plain, 100. *. (metrics -. plain) /. plain)

(* The workload's cells as shards over the host's recommended domain
   count: (wall, busy, efficiency, critical cell), in seconds. *)
let parallel_probe (prepared : Workloads.prepared) =
  let jobs = min (Xc_sim.Parallel.recommended_jobs ()) (List.length prepared.Workloads.cells) in
  let t0 = Spans.now () in
  let cell_times =
    Spans.record ~phase:"parallel" "parallel" (fun () ->
        Spans.recording := false;
        Fun.protect
          ~finally:(fun () -> Spans.recording := true)
          (fun () ->
            Workloads.observed prepared ~trace:true ~metrics:true (fun () ->
                Xc_sim.Parallel.run_sharded ~jobs
                  (List.map
                     (fun (c : Workloads.cell) ->
                       Xc_sim.Parallel.Shard.thunk (fun () ->
                           let c0 = Spans.now () in
                           ignore (c.Workloads.run ());
                           seconds_since c0))
                     prepared.Workloads.cells))))
  in
  let wall = seconds_since t0 in
  let busy = List.fold_left ( +. ) 0. cell_times in
  (wall, busy, busy /. (wall *. float_of_int jobs), List.fold_left Float.max 0. cell_times)

let per_layer_metrics ~prepared ~warm ~gc0 ~gc1 ~setup_times ~untraced ~traced =
  (* The probes record spans too. *)
  Spans.recording := true;
  let trace_overhead, metrics_overhead = observability_probe prepared in
  let par_wall, par_busy, par_efficiency, par_critical = parallel_probe prepared in
  let layers = Spans.totals () in
  (* Set-up layers as a share of set-up time. *)
  let setup_total = List.fold_left ( +. ) 0. setup_times in
  let setup_pct name = 100. *. fst (layers ~phase:"setup" name) /. setup_total in
  (* Pass layers as a share of traced pass time; rates per busy second. *)
  let traced_total = List.fold_left (fun a p -> a +. p.wall) 0. traced in
  let busy name = fst (layers ~phase:"pass" name) /. float_of_int (List.length traced) in
  let busy_pct name = 100. *. fst (layers ~phase:"pass" name) /. traced_total in
  let events layer = layer_sum prepared layer (fun i -> float_of_int warm.cell_ops.(i)) in
  let per_s layer =
    let b = busy layer in
    if b > 0. then events layer /. b else 0.
  in
  let words_per layer =
    let e = events layer in
    if e > 0. then layer_sum prepared layer (fun i -> warm.cell_words.(i)) /. e else 0.
  in
  let fsum layer name = layer_sum prepared layer (fun i -> field name warm.outcomes.(i)) in
  let all_sum name = Array.fold_left (fun a o -> a +. field name o) 0. warm.outcomes in
  let max_queue = Array.fold_left (fun a o -> Float.max a (field "max_queue" o)) 0. warm.outcomes in
  (* Hedged minus unhedged host ns per event on the same config, as a
     share of the unhedged cost, averaged over platforms. *)
  let cells = Array.of_list prepared.Workloads.cells in
  let ns_per_event i =
    median (List.map (fun p -> p.cell_s.(i)) traced) *. 1e9
    /. float_of_int (max 1 warm.cell_ops.(i))
  in
  let lb_overhead policy =
    let deltas =
      List.filter_map
        (fun i ->
          match cells.(i).Workloads.hedge with
          | Some (p, base) when p = policy ->
              Array.find_index (fun (c : Workloads.cell) -> c.Workloads.name = base) cells
              |> Option.map (fun b -> 100. *. (ns_per_event i -. ns_per_event b) /. ns_per_event b)
          | _ -> None)
        (List.init (Array.length cells) Fun.id)
    in
    if deltas = [] then 0.
    else List.fold_left ( +. ) 0. deltas /. float_of_int (List.length deltas)
  in
  let untraced_wall = pass_time untraced in
  let traced_wall = pass_time traced in
  let platform_calls = float_of_int (snd (layers ~phase:"setup" "platform.create")) in
  [
    ("suite.parse_pct", setup_pct "suite.parse");
    ("platform.create_pct", setup_pct "platform.create");
    ("platform.create_calls", platform_calls /. float_of_int (List.length setup_times));
    ("recipe.price_pct", setup_pct "recipe.price");
    ("closed_loop.busy_pct", busy_pct "closed_loop");
    ("closed_loop.events", events "closed_loop");
    ("closed_loop.events_per_s", per_s "closed_loop");
    ("closed_loop.alloc_words_per_event", words_per "closed_loop");
    ("closed_loop.requests", fsum "closed_loop" "completed");
    ("open_loop.busy_pct", busy_pct "open_loop");
    ("open_loop.events", events "open_loop");
    ("open_loop.events_per_s", per_s "open_loop");
    ("open_loop.alloc_words_per_event", words_per "open_loop");
    ("open_loop.max_queue", max_queue);
    ("cluster_sim.busy_pct", busy_pct "cluster_sim");
    ("cluster_sim.events", events "cluster_sim");
    ("cluster_sim.events_per_s", per_s "cluster_sim");
    ("cluster_sim.container_switches", fsum "cluster_sim" "container_switches");
    ("cluster_sim.process_switches", fsum "cluster_sim" "process_switches");
    ("lb.overhead_pct.least-loaded", lb_overhead "least-loaded");
    ("lb.overhead_pct.po2c", lb_overhead "po2c");
    ("machine.busy_pct", busy_pct "machine");
    ("machine.insns", events "machine");
    ("machine.insns_per_s", per_s "machine");
    ("machine.alloc_words_per_insn", words_per "machine");
    ("trace.spans", all_sum "spans");
    ("trace.dropped", all_sum "dropped");
    ("trace.overhead_pct", trace_overhead);
    ("profile.attribute_pct", busy_pct "profile.attribute");
    ("metrics.snapshots", all_sum "snapshots");
    ("metrics.overhead_pct", metrics_overhead);
    ("parallel.wall_s", par_wall);
    ("parallel.busy_s", par_busy);
    ("parallel.efficiency", par_efficiency);
    ("parallel.critical_cell_s", par_critical);
    ("parallel.speedup", untraced_wall /. par_wall);
    ("gc.minor_collections", float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
    ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ("gc.promoted_words", gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
    ("bench.trace_overhead_pct", 100. *. (traced_wall -. untraced_wall) /. untraced_wall);
  ]

let child ~workload ~seed ~passes ~seconds ~trace ~smoke ~spans ~fingerprints =
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  let body () =
    (* Set-up is repeated before every timed pass, so its samples are
       spread over the run like the passes' are; the median is setup_s. *)
    let setup_times = ref [] in
    let setup () =
      Spans.recording := trace;
      let t0 = Spans.now () in
      let prepared =
        Spans.record ~phase:"setup" "setup" (fun () ->
            (match Xc_cpu.Costs.validate () with
            | Ok () -> ()
            | Error es -> failwith ("Costs.validate: " ^ String.concat "; " es));
            w.Workloads.setup ~seed ~smoke)
      in
      setup_times := seconds_since t0 :: !setup_times;
      Spans.recording := false;
      prepared
    in
    let prepared = setup () in
    let gc0 = Gc.quick_stat () in
    let warm = run_pass prepared in
    let gc1 = Gc.quick_stat () in
    if fingerprints then
      List.iteri
        (fun i (c : Workloads.cell) ->
          Option.iter
            (fun o -> Printf.printf "%s %s %s\n" workload c.Workloads.name (fingerprint o))
            warm.outcomes.(i))
        prepared.Workloads.cells;
    let n_cells = List.length prepared.Workloads.cells in
    let attempted = ref n_cells in
    let failed =
      ref (check_reference ~workload ~against_expected:(seed = 42 && not smoke) prepared warm)
    in
    let timed p =
      attempted := !attempted + n_cells;
      failed := !failed + check_repeat ~workload prepared ~reference:warm p;
      p
    in
    let untraced = ref [] and traced = ref [] in
    let t0 = Spans.now () in
    (* The heap's high-water mark after a fixed amount of work (the
       warm-up and the first [passes] timed passes), so it repeats
       exactly for a seed whatever the host's speed. *)
    let heap_words = ref 0 in
    while List.length !untraced < passes || seconds_since t0 < seconds do
      ignore (setup ());
      untraced := timed (run_pass prepared) :: !untraced;
      if List.length !untraced = passes then
        heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      if trace then begin
        Spans.recording := true;
        let p = Spans.record ~phase:"pass" "pass" (fun () -> run_pass prepared) in
        traced := timed p :: !traced;
        Spans.recording := false
      end
    done;
    let wall = pass_time !untraced in
    let metrics =
      if trace then
        per_layer_metrics ~prepared ~warm ~gc0 ~gc1 ~setup_times:!setup_times ~untraced:!untraced
          ~traced:!traced
      else
        [
          ("wall_s", wall);
          ("ops_per_s", float_of_int warm.ops /. wall);
          ("alloc_words_per_op", warm.words /. float_of_int (max 1 warm.ops));
          ("heap_peak_mb", float_of_int (!heap_words * (Sys.word_size / 8)) /. 1048576.);
          ("setup_s", median !setup_times);
        ]
    in
    (metrics, !attempted, !failed, List.map (fun p -> p.wall) !untraced)
  in
  let metrics, attempted, failed, walls =
    if trace then begin
      Spans.recording := true;
      let r = Spans.record ~phase:"workload" workload body in
      Option.iter Spans.write spans;
      r
    end
    else body ()
  in
  let p25, p75 = quartiles walls in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("trace", Json.Bool trace);
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("pass_p25", Json.Num p25);
      ("pass_p75", Json.Num p75);
      ("passes", Json.Num (float_of_int (List.length walls)));
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) metrics));
    ]

(* ------------------------------------------------------------------ *)
(* Parent: spawn the children, aggregate, report.                      *)

let spawn args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: before -> Ok (List.rev before, last)
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "child %s exited %d" (String.concat " " args) c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "child %s killed by signal %d" (String.concat " " args) s)

(* Merge the children's span files into one Chrome trace, one process
   track per child. *)
let merge_spans path parts =
  let events =
    List.concat
      (List.mapi
         (fun k (label, part) ->
           let doc = Json.parse (In_channel.with_open_text part In_channel.input_all) in
           Sys.remove part;
           let pid = Json.Num (float_of_int (k + 1)) in
           let meta =
             Json.Obj
               [
                 ("name", Json.Str "process_name");
                 ("ph", Json.Str "M");
                 ("pid", pid);
                 ("args", Json.Obj [ ("name", Json.Str label) ]);
               ]
           in
           meta
           :: List.map
                (fun e ->
                  Json.Obj
                    (List.map
                       (fun (k, v) -> if k = "pid" then (k, pid) else (k, v))
                       (Json.to_obj e)))
                (Json.to_list (Json.member "traceEvents" doc)))
         parts)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_line
           (Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ]));
      output_char oc '\n')

let fmt_value v = Printf.sprintf "%.6g" v

let parent ~workloads ~seed ~passes ~seconds ~trace ~smoke ~spans ~runs ~json ~fingerprints =
  let spans = if trace && spans = None then Some "xcperf.spans.json" else spans in
  let records = ref [] and parts = ref [] and errors = ref 0 in
  for run = 1 to runs do
    List.iter
      (fun w ->
        let part = Option.map (fun p -> Printf.sprintf "%s.%s.%d.part" p w run) spans in
        let args =
          [ "--child"; w; "--seed"; string_of_int seed; "--passes"; string_of_int passes;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
          @ (if smoke then [ "--smoke" ] else [])
          @ (if fingerprints then [ "--fingerprints" ] else [])
          @ match part with Some p -> [ "--spans"; p ] | None -> []
        in
        match spawn args with
        | Error m ->
            incr errors;
            prerr_endline ("xcperf: " ^ m)
        | Ok (before, line) ->
            List.iter print_endline before;
            Option.iter (fun p -> parts := (Printf.sprintf "%s run %d" w run, p) :: !parts) part;
            Option.iter
              (fun path ->
                Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
                  (fun oc -> output_string oc (line ^ "\n")))
              json;
            records := (w, Json.parse line) :: !records)
      workloads
  done;
  if !errors > 0 then exit 2;
  if fingerprints then exit 0;
  Option.iter (fun path -> merge_spans path (List.rev !parts)) spans;
  let records = List.rev !records in
  let num k r = Json.(to_float (member k r)) in
  let attempted = List.fold_left (fun a (_, r) -> a + int_of_float (num "attempted" r)) 0 records in
  let failed = List.fold_left (fun a (_, r) -> a + int_of_float (num "failed" r)) 0 records in
  let defs = if trace then per_layer else end_to_end in
  Printf.printf "xcperf: seed %d, %d run(s), %s, %d of %d cell-runs failed\n" seed runs
    (if trace then "traced (per-layer metrics)" else "untraced (end-to-end metrics)")
    failed attempted;
  let single = List.length workloads = 1 in
  let result =
    List.concat_map
      (fun w ->
        let rs = List.filter_map (fun (w', r) -> if w = w' then Some r else None) records in
        Printf.printf "\n  %s\n" w;
        List.map
          (fun m ->
            let values =
              List.map (fun r -> Json.(to_float (member m.name (member "metrics" r)))) rs
            in
            let v = median values in
            let spread =
              match rs with
              | [ r ] when m.name = "wall_s" ->
                  Printf.sprintf "pass p25 %s p75 %s n %.0f" (fmt_value (num "pass_p25" r))
                    (fmt_value (num "pass_p75" r)) (num "passes" r)
              | _ :: _ :: _ ->
                  let a, b = quartiles values in
                  Printf.sprintf "p25 %s p75 %s n %d (runs)" (fmt_value a) (fmt_value b)
                    (List.length values)
              | _ -> ""
            in
            Printf.printf "  %-15s %-38s %14s %-7s %s\n" w m.name (fmt_value v) m.unit_ spread;
            ( (if single then m.name else w ^ "/" ^ m.name),
              Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ] ))
          defs)
      workloads
  in
  Option.iter (fun p -> Printf.printf "\nspans: %s\n" p) spans;
  print_endline
    (Json.to_line
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj result);
          ]));
  if failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* compare: the bounds of BENCHMARK.json applied to two record sets.   *)

let compare_files a b =
  let load path =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map Json.parse
  in
  let ra = load a and rb = load b in
  let values rs w m =
    List.filter_map
      (fun r ->
        if Json.(to_string (member "workload" r)) <> w then None
        else
          match List.assoc_opt m (Json.to_obj (Json.member "metrics" r)) with
          | Some v -> Some (Json.to_float v)
          | None -> None)
      rs
  in
  Printf.printf "%-15s %-20s %12s %12s %8s %8s %6s %7s  %s\n" "workload" "metric" "A median"
    "B median" "change" "spread" "bound" "B wins" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          match (values ra w m.name, values rb w m.name, m.bound) with
          | [], _, _ | _, [], _ | _, _, None -> ()
          | va, vb, Some bound ->
              let ma = median va and mb = median vb in
              let rel v m = let lo, hi = quartiles v in (hi -. lo) /. m in
              let spread = Float.max (rel va ma) (rel vb mb) in
              let sign = if m.better = "lower" then 1. else -1. in
              let worse = sign *. (mb -. ma) /. ma in
              let all_better =
                let best_a =
                  List.fold_left (fun acc v -> Float.min acc (sign *. v)) Float.infinity va
                in
                List.for_all (fun v -> sign *. v < best_a) vb
              in
              let verdict =
                if spread > bound then if all_better then "improved" else "unresolved"
                else if worse > bound then "regressed"
                else if worse < -.bound then "improved"
                else "unchanged"
              in
              (* Records pair up in file order: run i of A against run i of B. *)
              let rec wins n k = function
                | x :: xs, y :: ys ->
                    wins (n + 1) (if sign *. y < sign *. x then k + 1 else k) (xs, ys)
                | _ -> (k, n)
              in
              let k, n = wins 0 0 (va, vb) in
              if verdict = "regressed" then regressed := true;
              Printf.printf "%-15s %-20s %12s %12s %+7.2f%% %7.2f%% %5.1f%% %7s  %s\n" w m.name
                (fmt_value ma) (fmt_value mb) (100. *. (mb -. ma) /. ma) (100. *. spread)
                (100. *. bound) (Printf.sprintf "%d/%d" k n) verdict)
        end_to_end)
    defined_workloads;
  if !regressed then exit 1

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> (
      match rest with
      | [ a; b ] -> compare_files a b
      | _ ->
          prerr_endline "usage: xcperf compare A.jsonl B.jsonl";
          exit 2)
  | _ ->
      let workloads = ref [] and seed = ref 42 and passes = ref 5 and seconds = ref 0. in
      let trace = ref 0 and spans = ref None and runs = ref 1 and json = ref None in
      let smoke = ref false and fingerprints = ref false and child_of = ref None in
      let specs =
        [
          ("--workload", Arg.String (fun w -> workloads := w :: !workloads),
           "NAME  run this workload (repeatable; default all)");
          ("--seed", Arg.Set_int seed, "N  workload seed (default 42)");
          ("--passes", Arg.Set_int passes, "P  minimum timed passes (default 5)");
          ("--seconds", Arg.Set_float seconds, "T  minimum timed seconds (default 0)");
          ("--trace", Arg.Int (fun t -> trace := t), "0|1  traced run: per-layer metrics");
          ("--spans", Arg.String (fun f -> spans := Some f),
           "FILE  span file of a traced run (default xcperf.spans.json)");
          ("--runs", Arg.Set_int runs, "N  interleave N complete runs (default 1)");
          ("--json", Arg.String (fun f -> json := Some f),
           "FILE  append one result record per workload run");
          ("--smoke", Arg.Set smoke, " tiny sizes, for the tier-1 check");
          ("--fingerprints", Arg.Set fingerprints,
           " print the warm-up pass's output fingerprints and exit");
          ("--child", Arg.String (fun w -> child_of := Some w), "");
        ]
      in
      let usage = "xcperf [options] | xcperf compare A.jsonl B.jsonl" in
      Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
      let bad m = prerr_endline ("xcperf: " ^ m); exit 2 in
      if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
      if !passes < 1 then bad "--passes must be at least 1";
      if !runs < 1 then bad "--runs must be at least 1";
      if !seconds < 0. then bad "--seconds must not be negative";
      let trace = !trace = 1 in
      match !child_of with
      | Some w ->
          let record =
            child ~workload:w ~seed:!seed ~passes:!passes ~seconds:!seconds ~trace ~smoke:!smoke
              ~spans:!spans ~fingerprints:!fingerprints
          in
          print_endline (Json.to_line record)
      | None ->
          let workloads = if !workloads = [] then defined_workloads else List.rev !workloads in
          List.iter
            (fun w ->
              if not (List.mem w defined_workloads) then
                bad
                  (Printf.sprintf "unknown workload %S; one of: %s" w
                     (String.concat ", " defined_workloads)))
            workloads;
          parent ~workloads ~seed:!seed ~passes:!passes ~seconds:!seconds ~trace ~smoke:!smoke
            ~spans:!spans ~runs:!runs ~json:!json ~fingerprints:!fingerprints
