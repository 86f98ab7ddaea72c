(* The five benchmark workloads.  Each turns the seed into suite text or
   call arguments during set-up, then exposes its work as cells: one
   call into a public simulator function, returning the fields that
   must repeat bit for bit and the verdict of an independent oracle. *)

module Spec = Xc_suite.Spec
module Suite = Xc_suite.Suite
module Driver = Xc_suite.Driver
module Workload = Xc_suite.Workload
module Platform = Xc_platforms.Platform
module CL = Xc_platforms.Closed_loop
module CS = Xc_platforms.Cluster_sim
module Recipe = Xc_apps.Recipe
module Profiles = Xc_apps.Profiles
module Trace = Xc_trace.Trace
module Profile = Xc_trace.Profile

type outcome = {
  fields : (string * float) list;
      (** fingerprinted with [%h]; also read back as layer counters *)
  oracle : (unit, string) result;
}

type cell = {
  name : string;
  layer : string;  (** the span name of the layer call that does the work *)
  hedge : (string * string) option;
      (** for a hedged cluster cell: its policy and the name of the same
          config's cell without load balancing *)
  run : unit -> outcome;
}

type observe = { trace_capacity : int; interval_ns : float }

type prepared = {
  cells : cell list;
  observe : observe option;
      (** tracing and telemetry the cells expect to be on while they run *)
}

(* Why each workload exists is recorded in BENCHMARK.json. *)
type t = { name : string; setup : seed:int -> smoke:bool -> prepared }

(* ------------------------------------------------------------------ *)
(* Set-up helpers: every call into a layer gets its span.              *)

let ok = function Ok v -> v | Error m -> failwith m
let parse text = (ok (Spans.record "suite.parse" (fun () -> Suite.parse text))).Suite.specs

let create config = Spans.record "platform.create" (fun () -> Platform.create config)
let price f = Spans.record "recipe.price" f

(* One platform per distinct runtime, created once. *)
let platforms specs =
  let made =
    List.fold_left
      (fun acc (s : Spec.t) ->
        if List.mem_assoc s.Spec.platform acc then acc
        else (s.Spec.platform, create s.Spec.platform) :: acc)
      [] specs
  in
  fun (s : Spec.t) -> List.assoc s.Spec.platform made

let sized ~smoke ~full ~tiny = if smoke then tiny else full

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)

let within ~what ~tol ~expected actual =
  let err = Float.abs (actual -. expected) /. expected in
  if Float.is_finite err && err <= tol then Ok ()
  else
    Error
      (Printf.sprintf "%s: %.6g against %.6g (%.2f%% off, tolerance %.1f%%)" what
         actual expected (100. *. err) (100. *. tol))

(* Little's law for a closed loop with no think time: N = X * R.  A
   measurement window of length D cuts at most one request per client
   at each edge, so over a finite window the law holds only to within
   about R/D; that edge term is added to the tolerance. *)
let little ~tol ~window_ns ~clients ~throughput_rps ~mean_ns =
  within ~what:"Little's law N = X*R" ~tol:(tol +. (mean_ns /. window_ns))
    ~expected:(float_of_int clients) (throughput_rps *. mean_ns /. 1e9)

let ( &&& ) a b = match a with Ok () -> b | e -> e

(* ------------------------------------------------------------------ *)
(* closed-macro: the bench's macro sweep through the generic driver.   *)

let closed_macro =
  let setup ~seed ~smoke =
    let text =
      Printf.sprintf
        "suite = closed-macro\n\n\
         [matrix macro]\n\
         connections = 96\n\
         seed = %d\n\
         %s\
         workload = %s\n\
         runtime = docker, xen-container, x-container, gvisor\n"
        seed
        (sized ~smoke ~full:"duration_ms = 500\nwarmup_ms = 50\n"
           ~tiny:"duration_ms = 100\nwarmup_ms = 10\n")
        (String.concat ", " Workload.names)
    in
    let cell (spec : Spec.t) =
      let run () =
        let r = Spans.record "closed_loop" (fun () -> Driver.closed_result spec) in
        {
          fields =
            [
              ("throughput_rps", r.CL.throughput_rps);
              ("mean_ns", r.CL.mean_latency_ns);
              ("p99_ns", r.CL.p99_ns);
              ("completed", float_of_int r.CL.completed);
            ];
          oracle =
            little ~tol:0.03 ~window_ns:(Spec.duration_ns spec)
              ~clients:spec.Spec.load.Spec.connections ~throughput_rps:r.CL.throughput_rps
              ~mean_ns:r.CL.mean_latency_ns;
        }
      in
      { name = spec.Spec.name; layer = "closed_loop"; hedge = None; run }
    in
    { cells = List.map cell (parse text); observe = None }
  in
  { name = "closed-macro"; setup }

(* ------------------------------------------------------------------ *)
(* open-overload: open loop below, near and past saturation.           *)

let open_overload =
  let setup ~seed ~smoke =
    let text =
      Printf.sprintf
        "suite = open-overload\n\n\
         [matrix open]\n\
         shape = open\n\
         seed = %d\n\
         %s\
         runtime = docker, x-container\n\
         rate = 0.5, 0.95, 1.5\n"
        seed
        (sized ~smoke ~full:"duration_ms = 500\nwarmup_ms = 50\n"
           ~tiny:"duration_ms = 100\nwarmup_ms = 10\n")
    in
    let specs = parse text in
    let platform = platforms specs in
    let cell (spec : Spec.t) =
      let recipe = (Workload.find_exn spec.Spec.workload).Workload.recipe in
      (* Driver.open_result serves on 4 units at the recipe's service time. *)
      let service = price (fun () -> Recipe.service_ns (platform spec) recipe) in
      let cap = 4e9 /. service in
      let rho = spec.Spec.load.Spec.rate in
      let run () =
        let r = Spans.record "open_loop" (fun () -> Driver.open_result spec) in
        (* Past saturation the warm-up backlog is served first and is
           not counted, so the counted rate falls below capacity. *)
        let expected =
          Float.min r.Xc_platforms.Open_loop.offered_rps
            (cap *. (1. -. ((rho -. 1.) *. Spec.warmup_ns spec /. Spec.duration_ns spec)))
        in
        {
          fields =
            [
              ("completed_rps", r.Xc_platforms.Open_loop.completed_rps);
              ("mean_ns", r.Xc_platforms.Open_loop.mean_latency_ns);
              ("p99_ns", r.Xc_platforms.Open_loop.p99_ns);
              ("max_queue", float_of_int r.Xc_platforms.Open_loop.max_queue);
            ];
          oracle =
            within ~what:"open-loop completion rate" ~tol:0.02 ~expected
              r.Xc_platforms.Open_loop.completed_rps;
        }
      in
      { name = spec.Spec.name; layer = "open_loop"; hedge = None; run }
    in
    { cells = List.map cell specs; observe = None }
  in
  { name = "open-overload"; setup }

(* ------------------------------------------------------------------ *)
(* cluster-hedge: the exact cluster tier with and without LB hedging.  *)

let cluster_hedge =
  let setup ~seed ~smoke =
    let common =
      Printf.sprintf
        "shape = cluster\nconnections = 1\nseed = %d\n%s\
         runtime = docker, x-container\n"
        seed
        (sized ~smoke ~full:"containers = 100\nduration_ms = 100\nwarmup_ms = 20\n"
           ~tiny:"containers = 40\nduration_ms = 20\nwarmup_ms = 4\n")
    in
    let text =
      Printf.sprintf
        "suite = cluster-hedge\n\n[matrix nolb]\n%s\n[matrix hedged]\n%s\
         param.policy = least-loaded, po2c\nparam.clones = 2\n"
        common common
    in
    let specs = parse text in
    let platform = platforms specs in
    let cell (spec : Spec.t) =
      let lb, hedge =
        match Spec.param spec "policy" with
        | None -> (None, None)
        | Some p ->
            let kind = ok (Xc_lb.Policy.kind_of_string p) in
            let clones = ok (Spec.param_int spec "clones" ~default:1) in
            ( Some { Xc_lb.Policy.kind; clones },
              Some (p, "nolb/" ^ Spec.runtime_to_string spec.Spec.platform.runtime) )
      in
      let config =
        price (fun () ->
            CS.config_of_platform ~containers:spec.Spec.load.Spec.containers
              ~connections:spec.Spec.load.Spec.connections ?lb (platform spec))
      in
      let config =
        {
          config with
          CS.duration_ns = Spec.duration_ns spec;
          warmup_ns = Spec.warmup_ns spec;
          seed = spec.Spec.seed;
        }
      in
      let run () =
        let r = Spans.record "cluster_sim" (fun () -> CS.run config) in
        let clients = config.CS.containers * config.CS.connections_per_container in
        {
          fields =
            [
              ("throughput_rps", r.CS.throughput_rps);
              ("mean_ns", r.CS.mean_latency_ns);
              ("p99_ns", r.CS.p99_latency_ns);
              ("container_switches", float_of_int r.CS.container_switches);
              ("process_switches", float_of_int r.CS.process_switches);
              ("busy_fraction", r.CS.busy_fraction);
            ];
          oracle =
            little ~tol:0.02 ~window_ns:config.CS.duration_ns ~clients
              ~throughput_rps:r.CS.throughput_rps
              ~mean_ns:r.CS.mean_latency_ns
            &&&
            if r.CS.busy_fraction >= 0. && r.CS.busy_fraction <= 1. then Ok ()
            else Error (Printf.sprintf "busy_fraction %g outside [0,1]" r.CS.busy_fraction);
        }
      in
      { name = spec.Spec.name; layer = "cluster_sim"; hedge; run }
    in
    { cells = List.map cell specs; observe = None }
  in
  { name = "cluster-hedge"; setup }

(* ------------------------------------------------------------------ *)
(* isa-abom: Table 1 on the ISA machine; no engine dispatches at all.  *)

let isa_abom =
  let slug (p : Profiles.profile) =
    String.map (fun c -> if c = ' ' then '-' else c) p.Profiles.name
  in
  let setup ~seed ~smoke =
    (* One experiment per Table 1 row, the row's index offsetting the seed. *)
    let text =
      String.concat ""
        ("suite = isa-abom\n"
        :: List.mapi
             (fun i p ->
               Printf.sprintf
                 "\n[experiment table1/%s]\nparam.profile = %s\nparam.invocations = %d\nseed = %d\n"
                 (slug p) (slug p)
                 (if smoke then 4_000 else 50_000)
                 (seed + i))
             Profiles.all)
    in
    let cell (spec : Spec.t) =
      let p = List.find (fun p -> Spec.param spec "profile" = Some (slug p)) Profiles.all in
      let invocations = ok (Spec.param_int spec "invocations" ~default:50_000) in
      let run () =
        let m =
          Spans.record "machine" (fun () ->
              Profiles.measure ~invocations ~seed:spec.Spec.seed p)
        in
        let near what paper v =
          if Float.abs (v -. paper) <= 0.02 then Ok ()
          else
            Error
              (Printf.sprintf "%s reduction %.4f, paper %.4f (over 2 points)" what v
                 paper)
        in
        {
          fields =
            [
              ("auto_reduction", m.Profiles.auto_reduction);
              ("manual_reduction", m.Profiles.manual_reduction);
              ("sites_patched", float_of_int m.Profiles.sites_patched);
              ("cmpxchg_ops", float_of_int m.Profiles.cmpxchg_ops);
            ];
          oracle =
            (near "auto" p.Profiles.paper_reduction m.Profiles.auto_reduction
            &&&
            match p.Profiles.paper_manual_reduction with
            | Some paper -> near "manual" paper m.Profiles.manual_reduction
            | None -> Ok ());
        }
      in
      { name = spec.Spec.name; layer = "machine"; hedge = None; run }
    in
    { cells = List.map cell (parse text); observe = None }
  in
  { name = "isa-abom"; setup }

(* ------------------------------------------------------------------ *)
(* closed-traced: the `xc trace run closed-loop --tail 99` path.       *)

let closed_traced =
  let setup ~seed ~smoke =
    let text =
      Printf.sprintf
        "suite = closed-traced\n\n\
         [matrix traced]\n\
         workload = nginx\n\
         connections = 32\n\
         seed = %d\n\
         %s\
         trace = true\n\
         tails = true\n\
         timeseries = true\n\
         interval_us = 50\n\
         runtime = docker, x-container, gvisor, xen-container\n"
        seed
        (sized ~smoke ~full:"duration_ms = 100\nwarmup_ms = 10\n"
           ~tiny:"duration_ms = 20\nwarmup_ms = 2\n")
    in
    let specs = parse text in
    let platform = platforms specs in
    let cell (spec : Spec.t) =
      let w = Workload.find_exn spec.Spec.workload in
      let p = platform spec in
      (* Cost queries emit trace spans: price before tracing is on. *)
      let server, mechanisms =
        price (fun () ->
            ( Xcontainers.Figures.server_for_public spec.Spec.platform p w.Workload.tag,
              Recipe.mechanisms p w.Workload.recipe ))
      in
      let config =
        {
          CL.default_config with
          CL.connections = spec.Spec.load.Spec.connections;
          duration_ns = Spec.duration_ns spec;
          warmup_ns = Spec.warmup_ns spec;
          seed = spec.Spec.seed;
          trace_mechanisms = mechanisms;
        }
      in
      let run () =
        let (r, captured), telemetry =
          Spans.record "closed_loop" (fun () ->
              Xc_sim.Metrics.capture (fun () -> Trace.capture (fun () -> CL.run config server)))
        in
        let tail =
          Spans.record "profile.attribute" (fun () ->
              let att = Profile.attribute captured.Trace.events in
              let cut =
                Xc_sim.Histogram.percentile_floor
                  (Xc_sim.Histogram.of_samples (Profile.request_totals att))
                  99.
              in
              Profile.tail_of ~label:spec.Spec.name ~pct:99. ~cut_ns:cut att)
        in
        {
          fields =
            [
              ("throughput_rps", r.CL.throughput_rps);
              ("mean_ns", r.CL.mean_latency_ns);
              ("p99_ns", r.CL.p99_ns);
              ("completed", float_of_int r.CL.completed);
              ("spans", float_of_int (List.length captured.Trace.events));
              ("dropped", float_of_int captured.Trace.dropped);
              ("snapshots", float_of_int (List.length telemetry.Xc_sim.Metrics.snapshots));
              ("tail_requests", float_of_int tail.Profile.n_tail);
              ("tail_total_ns", tail.Profile.tail_total_ns);
            ];
          oracle =
            (little ~tol:0.03 ~window_ns:config.CL.duration_ns
               ~clients:config.CL.connections ~throughput_rps:r.CL.throughput_rps
               ~mean_ns:r.CL.mean_latency_ns
            &&&
            if captured.Trace.dropped = 0 then Ok ()
            else Error (Printf.sprintf "%d trace events dropped" captured.Trace.dropped));
        }
      in
      { name = spec.Spec.name; layer = "closed_loop"; hedge = None; run }
    in
    let cells = List.map cell specs in
    let interval_us = (List.hd specs).Spec.capture.Spec.interval_us in
    {
      cells;
      observe =
        Some { trace_capacity = 1 lsl 20; interval_ns = float_of_int interval_us *. 1e3 };
    }
  in
  { name = "closed-traced"; setup }

let all = [ closed_macro; open_overload; cluster_hedge; isa_abom; closed_traced ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Tracing and telemetry on for the duration of [f], as the cells of an
   observed workload expect. *)
let observed prepared ~trace ~metrics f =
  match prepared.observe with
  | None -> f ()
  | Some o ->
      if trace then Trace.enable ~capacity:o.trace_capacity ();
      if metrics then Xc_sim.Metrics.enable ~interval_ns:o.interval_ns ();
      Fun.protect
        ~finally:(fun () ->
          Trace.disable ();
          Xc_sim.Metrics.disable ())
        f
