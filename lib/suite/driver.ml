(* The generic interpreter: a {!Spec.t} into the existing engines, and
   the one place a closed-loop or cluster point is priced.

   Closed specs are the bench macro-sweep cell —
   [Closed_loop.default_config] overridden by the spec's typed fields,
   a [Figures.server_for_public] server — and the bench's macro-extra
   experiment runs the named macro suite through this very function
   (the differential golden tests pin its output).  Open specs drive
   [Open_loop] at [rate] x the server's own capacity; cluster specs fan
   [nodes] seeded [Cluster_sim] nodes at the requested fidelity tier. *)

module Figures = Xcontainers.Figures
module CL = Xc_platforms.Closed_loop
module OL = Xc_platforms.Open_loop
module CS = Xc_platforms.Cluster_sim

type row = {
  spec : Spec.t;
  throughput_rps : float;
  mean_ns : float;
  p50_ns : float;  (** NaN for cluster shapes (no per-request p50) *)
  p99_ns : float;  (** NaN on the fluid tier *)
}

(* The recipe's per-mechanism rows with each whatif axis applied: the
   closed loop's bundle rows when the spec asks for tails, and, summed
   back to a deterministic service time, the what-if service pricing
   on closed/open shapes whenever the spec carries what-ifs — so a
   whatif spec's baseline is its [whatif.MECH = 1] sibling (same
   decomposed pricing), not the bespoke per-app server model. *)
let whatif_rows (spec : Spec.t) platform recipe =
  List.fold_left
    (fun rows (mech, scale) ->
      Xc_obs.Whatif.scale_rows { Xc_obs.Whatif.mech; scale } rows)
    (Xc_apps.Recipe.mechanisms platform recipe)
    spec.Spec.whatif

let whatif_service spec platform recipe =
  List.fold_left (fun a (_, _, ns) -> a +. ns) 0. (whatif_rows spec platform recipe)

(* The server is priced before the recipe's rows: inside a traced suite
   cell both emit spans, in this order. *)
let closed (spec : Spec.t) =
  let w = Workload.find_exn spec.workload in
  let platform = Xc_platforms.Platform.create spec.platform in
  let server =
    if spec.whatif = [] then
      Figures.server_for_public spec.platform platform w.Workload.tag
    else
      let service = whatif_service spec platform w.Workload.recipe in
      { CL.units = 4; base_ns = service; stddev = 0.; floor = 0. }
  in
  let config =
    {
      CL.default_config with
      CL.connections = spec.load.connections;
      duration_ns = Spec.duration_ns spec;
      warmup_ns = Spec.warmup_ns spec;
      seed = spec.seed;
      trace_mechanisms =
        (if spec.capture.tails then whatif_rows spec platform w.Workload.recipe
         else []);
    }
  in
  (config, server)

let closed_result spec =
  let config, server = closed spec in
  CL.run config server

let open_result (spec : Spec.t) =
  let w = Workload.find_exn spec.workload in
  let platform = Xc_platforms.Platform.create spec.platform in
  let service =
    if spec.whatif = [] then Xc_apps.Recipe.service_ns platform w.Workload.recipe
    else whatif_service spec platform w.Workload.recipe
  in
  let units = 4 in
  let server = { CL.units; base_ns = service; stddev = 0.; floor = 0. } in
  let rate_rps = spec.load.rate *. (float_of_int units *. 1e9 /. service) in
  OL.run
    (OL.config
       ~duration_ns:(Spec.duration_ns spec)
       ~warmup_ns:(Spec.warmup_ns spec) ~seed:spec.seed ~rate_rps ())
    server

let cluster (spec : Spec.t) =
  let platform = Xc_platforms.Platform.create spec.platform in
  let base =
    CS.config_of_platform ~containers:spec.load.containers
      ~connections:spec.load.connections platform
  in
  let base =
    {
      base with
      CS.duration_ns = Spec.duration_ns spec;
      warmup_ns = Spec.warmup_ns spec;
    }
  in
  (* The config is priced ([config_of_platform] above), so a validated
     what-if cannot fail to apply — an [Error] here is a logic bug. *)
  let base =
    match Xc_obs.Whatif.apply_cluster_all spec.whatif base with
    | Ok c -> c
    | Error m -> invalid_arg (Printf.sprintf "Driver: %s: %s" spec.Spec.name m)
  in
  List.init spec.load.nodes (fun i -> { base with CS.seed = spec.seed + i })

let cluster_row spec (rs : CS.result list) =
  let n = float_of_int (List.length rs) in
  let tput = List.fold_left (fun a (r : CS.result) -> a +. r.CS.throughput_rps) 0. rs in
  let mean =
    List.fold_left (fun a (r : CS.result) -> a +. r.CS.mean_latency_ns) 0. rs /. n
  in
  (* Worst non-NaN p99 across nodes (the fluid tier predicts no tail);
     NaN only if no node produced one. *)
  let p99 =
    List.fold_left
      (fun a (r : CS.result) ->
        let p = r.CS.p99_latency_ns in
        if Float.is_nan p then a else if Float.is_nan a || p > a then p else a)
      Float.nan rs
  in
  { spec; throughput_rps = tput; mean_ns = mean; p50_ns = Float.nan; p99_ns = p99 }

let run (spec : Spec.t) =
  match spec.load.shape with
  | Spec.Closed ->
      let r = closed_result spec in
      {
        spec;
        throughput_rps = r.CL.throughput_rps;
        mean_ns = r.CL.mean_latency_ns;
        p50_ns = r.CL.p50_ns;
        p99_ns = r.CL.p99_ns;
      }
  | Spec.Open ->
      let r = open_result spec in
      {
        spec;
        throughput_rps = r.OL.completed_rps;
        mean_ns = r.OL.mean_latency_ns;
        p50_ns = r.OL.p50_ns;
        p99_ns = r.OL.p99_ns;
      }
  | Spec.Cluster ->
      cluster_row spec (List.map (CS.run_fidelity spec.fidelity) (cluster spec))

(* ------------------------------------------------------------------ *)
(* Capture wants: what a suite's specs ask the runner to record.       *)

let wants_trace (t : Suite.t) =
  List.exists
    (fun (s : Spec.t) -> s.Spec.capture.Spec.trace || s.Spec.capture.Spec.tails)
    t.Suite.specs

let wants_timeseries (t : Suite.t) =
  List.exists (fun (s : Spec.t) -> s.Spec.capture.Spec.timeseries) t.Suite.specs

let sample_stride (t : Suite.t) =
  List.fold_left
    (fun a (s : Spec.t) -> max a s.Spec.capture.Spec.sample)
    1 t.Suite.specs

let interval_us (t : Suite.t) =
  let v =
    List.fold_left
      (fun a (s : Spec.t) ->
        let i = s.Spec.capture.Spec.interval_us in
        if i > 0 && (a = 0 || i < a) then i else a)
      0 t.Suite.specs
  in
  if v = 0 then 50 else v

(* ------------------------------------------------------------------ *)
(* The result table: what [Run.suite] prints and [xc suite run --csv]
   writes.                                                             *)

module T = Xc_sim.Table

(* Latencies in microseconds; a statistic the shape does not produce
   (a cluster's p50, a fluid node's p99) is NaN and shows as "-". *)
let us v =
  if Float.is_nan v then T.Text "-"
  else T.num (T.Scaled { per = 1e3; digits = 0; unit = "us" }) v

let table rows =
  let t =
    T.create
      [
        ("experiment", T.Left);
        ("platform", T.Left);
        ("workload", T.Left);
        ("shape", T.Left);
        ("req/s", T.Right);
        ("mean", T.Right);
        ("p50", T.Right);
        ("p99", T.Right);
      ]
  in
  List.iter
    (fun r ->
      T.add_row t
        [
          T.Text r.spec.Spec.name;
          T.Text (Spec.Config.name r.spec.Spec.platform);
          T.Text r.spec.Spec.workload;
          T.Text (Spec.shape_to_string r.spec.Spec.load.Spec.shape);
          T.num T.Si r.throughput_rps;
          us r.mean_ns;
          us r.p50_ns;
          us r.p99_ns;
        ])
    rows;
  t
