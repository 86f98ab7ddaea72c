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

let run config server =
  let rate = config.arrival_rate_rps in
  if not (Float.is_finite rate && rate > 0.) then invalid_arg "Open_loop.run: rate";
  let r =
    Station.run ~warmup_ns:config.warmup_ns ~duration_ns:config.duration_ns
      ~seed:config.seed
      (Station.Poisson { rate_rps = config.arrival_rate_rps })
      server
  in
  let latencies = r.Station.latencies in
  {
    offered_rps = config.arrival_rate_rps;
    completed_rps = float_of_int r.Station.completed /. (config.duration_ns /. 1e9);
    mean_latency_ns = Xc_sim.Histogram.mean latencies;
    p50_ns = Xc_sim.Histogram.percentile latencies 50.;
    p99_ns = Xc_sim.Histogram.percentile latencies 99.;
    max_queue = r.Station.max_in_system;
  }
