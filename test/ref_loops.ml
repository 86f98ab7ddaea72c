(* The closed and open loops as they ran before the station kernel: one
   Engine callback per event and one closure per request, the closed
   loop with its trace bundles and telemetry.  They are the reference
   the kernel is checked against bit for bit (test_platforms,
   test_extensions).  So is the engine-driven cold-start model for the
   plain arrival loop that replaced it. *)

module Engine = Ref_engine
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram
module Metrics = Xc_sim.Metrics
module Trace = Xc_trace.Trace
module CL = Xc_platforms.Closed_loop
module OL = Xc_platforms.Open_loop

(* The emitter shape the references were written against: a time, a
   duration and an optional value, handed to [Trace] in a cell. *)
let span_at ?(value = 0.) ~at ~cat ~name d =
  Trace.span_at ~id:(int_of_float value) ~cat ~name [| at; d |]

let service_ns (s : CL.server) =
  if s.CL.stddev = 0. then fun _ -> s.CL.base_ns
  else fun rng ->
    s.CL.base_ns *. Float.max s.CL.floor (Prng.normal rng ~mean:1.0 ~stddev:s.CL.stddev)

let least_loaded unit_free =
  let best = ref 0 in
  for i = 1 to Array.length unit_free - 1 do
    if unit_free.(i) < unit_free.(!best) then best := i
  done;
  !best

let closed (config : CL.config) server : CL.result =
  let service_ns = service_ns server in
  let engine = Engine.create () in
  let rng = Prng.create config.CL.seed in
  let unit_free = Array.make (Stdlib.max 1 server.CL.units) 0. in
  let latencies = Histogram.create () in
  let completed = ref 0 in
  let measure_start = config.CL.warmup_ns in
  let measure_end = config.CL.warmup_ns +. config.CL.duration_ns in
  let half = config.CL.rtt_ns /. 2. in
  let mechanisms = config.CL.trace_mechanisms in
  (* The bundle lane: each measured request, and its bundle if one is
     configured, re-based onto a sequential region past the end of the
     simulated timeline. *)
  let synth_cursor = ref (measure_end +. config.CL.rtt_ns +. 1e9) in
  let emit ~sent_at ~start ~finish now =
    let bundle = mechanisms <> [] in
    let shift =
      let cur = !synth_cursor in
      synth_cursor := cur +. (now -. sent_at);
      cur -. sent_at
    in
    span_at ~at:(sent_at +. shift)
      ~value:(float_of_int !completed) ~cat:"request" ~name:"closed-loop"
      (now -. sent_at);
    if bundle then begin
      let arrive_at = sent_at +. half in
      if half > 0. then
        span_at ~at:(sent_at +. shift) ~cat:"net.hop" ~name:"client->server" half;
      if start -. arrive_at > 0. then
        span_at ~at:(arrive_at +. shift) ~cat:"sched" ~name:"queue-wait"
          (start -. arrive_at);
      let cursor = ref (start +. shift) and budget = finish +. shift in
      List.iter
        (fun (cat, name, ns) ->
          let d = Float.min ns (budget -. !cursor) in
          if d > 0. then begin
            span_at ~at:!cursor ~cat ~name d;
            cursor := !cursor +. d
          end)
        mechanisms;
      if half > 0. then
        span_at ~at:(finish +. shift) ~cat:"net.hop" ~name:"server->client" half
    end
  in
  let rec client_loop engine =
    let now = Engine.now engine in
    if now < measure_end then begin
      let sent_at = now in
      let arrival = now +. (config.CL.rtt_ns /. 2.) in
      let u = least_loaded unit_free in
      let start = Float.max arrival unit_free.(u) in
      let finish = start +. service_ns rng in
      unit_free.(u) <- finish;
      if Metrics.on () then begin
        Metrics.gauge_add ~cat:"platform" ~name:"in-flight" 1.;
        Metrics.counter_incr ~cat:"net" ~name:"messages"
      end;
      let response_at = finish +. (config.CL.rtt_ns /. 2.) in
      Engine.schedule engine response_at (fun engine ->
          let now = Engine.now engine in
          if Metrics.on () then Metrics.gauge_add ~cat:"platform" ~name:"in-flight" (-1.);
          if sent_at >= measure_start && now <= measure_end then begin
            incr completed;
            Histogram.add latencies (now -. sent_at);
            if Metrics.on () then begin
              Metrics.counter_incr ~cat:"platform" ~name:"requests";
              Metrics.hist_observe ~cat:"platform" ~name:"latency-ns" (now -. sent_at)
            end;
            if Trace.enabled () then emit ~sent_at ~start ~finish now
          end;
          client_loop engine)
    end
  in
  for _ = 1 to config.CL.connections do
    Engine.schedule engine (Prng.float rng 1e6) client_loop
  done;
  Engine.run engine;
  {
    CL.throughput_rps = float_of_int !completed /. (config.CL.duration_ns /. 1e9);
    mean_latency_ns = Histogram.mean latencies;
    p50_ns = Histogram.percentile latencies 50.;
    p99_ns = Histogram.percentile latencies 99.;
    completed = !completed;
  }

let open_ (config : OL.config) server : OL.result =
  let service_ns = service_ns server in
  let engine = Engine.create () in
  let rng = Prng.create config.OL.seed in
  let latencies = Histogram.create () in
  let unit_free = Array.make (Stdlib.max 1 server.CL.units) 0. in
  let measure_start = config.OL.warmup_ns in
  let measure_end = config.OL.warmup_ns +. config.OL.duration_ns in
  let completed = ref 0 in
  let in_flight = ref 0 in
  let max_queue = ref 0 in
  let mean_gap = 1e9 /. config.OL.arrival_rate_rps in
  let handle_arrival engine =
    let now = Engine.now engine in
    incr in_flight;
    if !in_flight > !max_queue then max_queue := !in_flight;
    let u = least_loaded unit_free in
    let start = Float.max now unit_free.(u) in
    let finish = start +. service_ns rng in
    unit_free.(u) <- finish;
    Engine.schedule engine finish (fun engine ->
        decr in_flight;
        let now' = Engine.now engine in
        if now >= measure_start && now' <= measure_end then begin
          incr completed;
          Histogram.add latencies (now' -. now)
        end)
  in
  let rec arrival_loop engine =
    let now = Engine.now engine in
    if now < measure_end then begin
      handle_arrival engine;
      let gap = Prng.exponential rng ~mean:mean_gap in
      Engine.schedule engine (now +. gap) arrival_loop
    end
  in
  Engine.schedule engine 0. arrival_loop;
  Engine.run engine;
  {
    OL.offered_rps = config.OL.arrival_rate_rps;
    completed_rps = float_of_int !completed /. (config.OL.duration_ns /. 1e9);
    mean_latency_ns = Histogram.mean latencies;
    p50_ns = Histogram.percentile latencies 50.;
    p99_ns = Histogram.percentile latencies 99.;
    max_queue = !max_queue;
  }

(* The cold-start model as it ran on the closure engine: one
   self-rescheduling Poisson arrival callback (test_coldstart). *)
module C = Xc_apps.Coldstart

type instance = { mutable free_at : float; mutable expires_at : float }

let coldstart path (config : C.config) : C.result =
  let engine = Engine.create () in
  let rng = Prng.create config.C.seed in
  let latencies = Histogram.create () in
  let pool : instance list ref = ref [] in
  let invocations = ref 0 in
  let cold = ref 0 in
  let spawn = C.spawn_ns path in
  let mean_gap = 1e9 /. config.C.arrival_rate_rps in
  let find_warm now =
    (* Drop expired instances, then pick an idle one. *)
    pool := List.filter (fun i -> i.expires_at > now) !pool;
    List.find_opt (fun i -> i.free_at <= now) !pool
  in
  let handle_invocation engine =
    let now = Engine.now engine in
    incr invocations;
    let start_delay, instance =
      match find_warm now with
      | Some i -> (0., i)
      | None ->
          incr cold;
          let i = { free_at = now; expires_at = now } in
          pool := i :: !pool;
          (spawn, i)
    in
    let finish = now +. start_delay +. config.C.service_ns in
    instance.free_at <- finish;
    instance.expires_at <- finish +. config.C.keepalive_ns;
    Histogram.add latencies (start_delay +. config.C.service_ns)
  in
  let rec arrivals engine =
    let now = Engine.now engine in
    if now < config.C.duration_ns then begin
      handle_invocation engine;
      Engine.schedule engine (now +. Prng.exponential rng ~mean:mean_gap) arrivals
    end
  in
  Engine.schedule engine 0. arrivals;
  Engine.run engine;
  {
    C.invocations = !invocations;
    cold_starts = !cold;
    cold_fraction =
      (if !invocations = 0 then 0. else float_of_int !cold /. float_of_int !invocations);
    p50_latency_ns = Histogram.percentile latencies 50.;
    p99_latency_ns = Histogram.percentile latencies 99.;
  }

(* ---------------- Differential inputs ---------------- *)

(* Constant and jittered servers.  A zero floor with a wide jitter
   samples a zero service now and then: with no RTT the response is
   then due at the current instant, which ran through the engine's
   same-timestamp fast lane. *)
let server_gen =
  QCheck.Gen.(
    map
      (fun (units, base_ns, stddev, floor) -> { CL.units; base_ns; stddev; floor })
      (quad (int_range 1 6) (float_range 1e3 1e5)
         (oneof [ return 0.; float_range 0.01 0.6 ])
         (oneof [ return 0.; float_range 0. 0.9 ])))

let print_server (s : CL.server) =
  Printf.sprintf "{units=%d; base_ns=%h; stddev=%h; floor=%h}" s.CL.units s.CL.base_ns
    s.CL.stddev s.CL.floor

(* A closed loop's trace bundle rows: up to four, each drawn up to
   past a whole jittered service so that rows get clamped. *)
let mechanisms_gen =
  QCheck.Gen.(
    list_size (int_range 0 4)
      (triple
         (oneofl [ "cpu"; "syscall-entry"; "syscall-work" ])
         (oneofl [ "user"; "entry"; "kernel" ])
         (float_range 0. 6e4)))

let print_mechanisms rows =
  String.concat "; " (List.map (fun (cat, name, ns) -> Printf.sprintf "%s/%s %h" cat name ns) rows)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Engine dispatches (or kernel credits) while [f] runs, with its result. *)
let counted f =
  let e0 = Xc_sim.Engine.domain_events () in
  let r = f () in
  (r, Xc_sim.Engine.domain_events () - e0)

(* [counted f]; traced, also every event [f] recorded and its telemetry
   (snapshots, counters, gauges and histograms), marshalled so floats
   compare bit for bit. *)
let observe ~traced f =
  if not traced then
    let r, n = counted f in
    (r, n, "")
  else begin
    Trace.enable ~capacity:Trace.default_capacity ();
    Metrics.enable ();
    Fun.protect
      ~finally:(fun () ->
        Metrics.disable ();
        Trace.disable ())
      (fun () ->
        let ((r, n), captured), telemetry =
          Metrics.capture (fun () -> Trace.capture (fun () -> counted f))
        in
        (* Events are views into their capture's columns: marshal their
           rows, not the views, which would copy a whole segment each. *)
        (r, n, Marshal.to_string (Trace_rows.captured captured, telemetry) [ Marshal.No_sharing ]))
  end
