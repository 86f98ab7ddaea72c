(* The closed and open loops as they ran before the station kernel: one
   Engine callback per event and one closure per request, without
   trace bundles or telemetry.  They are the reference the kernel is
   checked against bit for bit (test_platforms, test_extensions). *)

module Engine = Xc_sim.Engine
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram
module CL = Xc_platforms.Closed_loop
module OL = Xc_platforms.Open_loop

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
  let rec client_loop engine =
    let now = Engine.now engine in
    if now < measure_end then begin
      let sent_at = now in
      let arrival = now +. (config.CL.rtt_ns /. 2.) in
      let u = least_loaded unit_free in
      let start = Float.max arrival unit_free.(u) in
      let finish = start +. service_ns rng in
      unit_free.(u) <- finish;
      let response_at = finish +. (config.CL.rtt_ns /. 2.) in
      Engine.schedule engine response_at (fun engine ->
          let now = Engine.now engine in
          if sent_at >= measure_start && now <= measure_end then begin
            incr completed;
            Histogram.add latencies (now -. sent_at)
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

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Engine dispatches (or kernel credits) while [f] runs, with its result. *)
let counted f =
  let e0 = Engine.domain_events () in
  let r = f () in
  (r, Engine.domain_events () - e0)
