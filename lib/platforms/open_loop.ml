module Engine = Xc_sim.Engine
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram

type config = {
  arrival_rate_rps : float;
  duration_ns : float;
  warmup_ns : float;
  seed : int;
}

let config ?(duration_ns = 2e9) ?(warmup_ns = 2e8) ?(seed = 42) ~rate_rps () =
  { arrival_rate_rps = rate_rps; duration_ns; warmup_ns; seed }

type result = {
  offered_rps : float;
  completed_rps : float;
  mean_latency_ns : float;
  p50_ns : float;
  p99_ns : float;
  max_queue : int;
}

let run config (server : Closed_loop.server) =
  if config.arrival_rate_rps <= 0. then invalid_arg "Open_loop.run: rate";
  let engine = Engine.create () in
  let rng = Prng.create config.seed in
  let latencies = Histogram.create () in
  let unit_free = Array.make (Stdlib.max 1 server.units) 0. in
  let measure_start = config.warmup_ns in
  let measure_end = config.warmup_ns +. config.duration_ns in
  let completed = ref 0 in
  let in_flight = ref 0 in
  let max_queue = ref 0 in
  let mean_gap = 1e9 /. config.arrival_rate_rps in
  let least_loaded () =
    let best = ref 0 in
    for i = 1 to Array.length unit_free - 1 do
      if unit_free.(i) < unit_free.(!best) then best := i
    done;
    !best
  in
  let handle_arrival engine =
    let now = Engine.now engine in
    incr in_flight;
    if !in_flight > !max_queue then max_queue := !in_flight;
    let u = least_loaded () in
    let start = Float.max now unit_free.(u) in
    let finish = start +. server.service_ns rng in
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
    offered_rps = config.arrival_rate_rps;
    completed_rps = float_of_int !completed /. (config.duration_ns /. 1e9);
    mean_latency_ns = Histogram.mean latencies;
    p50_ns = Histogram.percentile latencies 50.;
    p99_ns = Histogram.percentile latencies 99.;
    max_queue = !max_queue;
  }
