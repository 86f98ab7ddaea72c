type server = Station.server = {
  units : int;
  base_ns : float;
  stddev : float;
  floor : float;
}

type config = {
  connections : int;
  rtt_ns : float;
  duration_ns : float;
  warmup_ns : float;
  seed : int;
  trace_mechanisms : (string * string * float) list;
}

let default_config =
  {
    connections = 32;
    rtt_ns = Xc_cpu.Costs.lan_rtt_ns;
    duration_ns = 2e9;
    warmup_ns = 2e8;
    seed = 42;
    trace_mechanisms = [];
  }

type result = {
  throughput_rps : float;
  mean_latency_ns : float;
  p50_ns : float;
  p99_ns : float;
  completed : int;
}

let run config server =
  let r =
    Station.run ~warmup_ns:config.warmup_ns ~duration_ns:config.duration_ns
      ~seed:config.seed
      (Station.Closed
         {
           connections = config.connections;
           rtt_ns = config.rtt_ns;
           mechanisms = config.trace_mechanisms;
         })
      server
  in
  let latencies = r.Station.latencies in
  {
    throughput_rps = float_of_int r.Station.completed /. (config.duration_ns /. 1e9);
    mean_latency_ns = Xc_sim.Histogram.mean latencies;
    p50_ns = Xc_sim.Histogram.percentile latencies 50.;
    p99_ns = Xc_sim.Histogram.percentile latencies 99.;
    completed = r.Station.completed;
  }
