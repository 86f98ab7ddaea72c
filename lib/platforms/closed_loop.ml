module Engine = Xc_sim.Engine
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram

type server = { units : int; service_ns : Prng.t -> float }

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
  let engine = Engine.create () in
  let rng = Prng.create config.seed in
  let unit_free = Array.make (Stdlib.max 1 server.units) 0. in
  let latencies = Histogram.create () in
  let completed = ref 0 in
  let measure_start = config.warmup_ns in
  let measure_end = config.warmup_ns +. config.duration_ns in
  let least_loaded () =
    let best = ref 0 in
    for i = 1 to Array.length unit_free - 1 do
      if unit_free.(i) < unit_free.(!best) then best := i
    done;
    !best
  in
  (* Bundle lane for tail attribution: when [trace_mechanisms] is set,
     each measured request's spans (request + synthetic children) are
     re-based onto a sequential region past the end of the simulated
     timeline.  Concurrent requests genuinely overlap in simulated
     time, and overlapping windows cannot be partitioned exactly by a
     containment sweep; packing the bundles end to end makes
     [Profile.attribute] exact. *)
  let synth_cursor = ref (measure_end +. config.rtt_ns +. 1e9) in
  let rec client_loop engine =
    let now = Engine.now engine in
    if now < measure_end then begin
      let sent_at = now in
      (* Request reaches the server after half an RTT. *)
      let arrival = now +. (config.rtt_ns /. 2.) in
      let u = least_loaded () in
      let start = Float.max arrival unit_free.(u) in
      let finish = start +. server.service_ns rng in
      unit_free.(u) <- finish;
      let response_at = finish +. (config.rtt_ns /. 2.) in
      if Xc_sim.Metrics.on () then begin
        Xc_sim.Metrics.gauge_add ~cat:"platform" ~name:"in-flight" 1.;
        Xc_sim.Metrics.counter_incr ~cat:"net" ~name:"messages"
      end;
      Engine.schedule engine response_at (fun engine ->
          let now = Engine.now engine in
          if Xc_sim.Metrics.on () then
            Xc_sim.Metrics.gauge_add ~cat:"platform" ~name:"in-flight" (-1.);
          if sent_at >= measure_start && now <= measure_end then begin
            incr completed;
            Histogram.add latencies (now -. sent_at);
            if Xc_sim.Metrics.on () then begin
              Xc_sim.Metrics.counter_incr ~cat:"platform" ~name:"requests";
              Xc_sim.Metrics.hist_observe ~cat:"platform" ~name:"latency-ns"
                (now -. sent_at)
            end;
            if Xc_trace.Trace.enabled () then begin
              (* value = completion index: a stable request id that
                 per-request tooling (Profile.attribute) reads back from
                 the span. *)
              let bundle = config.trace_mechanisms <> [] in
              (* [shift] re-bases the whole bundle onto the sequential
                 lane; 0 keeps the legacy real-time request span when no
                 mechanism decomposition was configured. *)
              let shift =
                if bundle then begin
                  let c = !synth_cursor in
                  synth_cursor := c +. (now -. sent_at);
                  c -. sent_at
                end
                else 0.
              in
              Xc_trace.Trace.span ~at:(sent_at +. shift)
                ~value:(float_of_int !completed) ~cat:"request"
                ~name:"closed-loop" (now -. sent_at);
              (* Synthetic mechanism children nested inside the request
                 window, so tail attribution can partition it exactly:
                 the client->server hop, queue wait, the configured
                 mechanism decomposition laid out serially over the
                 service window (clamped — jitter can make the sampled
                 service shorter than the deterministic decomposition;
                 any excess stays request self-time), and the return
                 hop. *)
              if bundle then begin
                let half = config.rtt_ns /. 2. in
                if half > 0. then
                  Xc_trace.Trace.span ~at:(sent_at +. shift) ~cat:"net.hop"
                    ~name:"client->server" half;
                if start -. arrival > 0. then
                  Xc_trace.Trace.span ~at:(arrival +. shift) ~cat:"sched"
                    ~name:"queue-wait" (start -. arrival);
                let cursor = ref (start +. shift) in
                let budget = finish +. shift in
                List.iter
                  (fun (cat, mname, ns) ->
                    let d = Float.min ns (budget -. !cursor) in
                    if d > 0. then begin
                      Xc_trace.Trace.span ~at:!cursor ~cat ~name:mname d;
                      cursor := !cursor +. d
                    end)
                  config.trace_mechanisms;
                if half > 0. then
                  Xc_trace.Trace.span ~at:(finish +. shift) ~cat:"net.hop"
                    ~name:"server->client" half
              end
            end
          end;
          client_loop engine)
    end
  in
  for _ = 1 to config.connections do
    (* Stagger initial sends a little to avoid a thundering herd. *)
    Engine.schedule engine (Prng.float rng 1e6) client_loop
  done;
  Engine.run engine;
  {
    throughput_rps = float_of_int !completed /. (config.duration_ns /. 1e9);
    mean_latency_ns = Histogram.mean latencies;
    p50_ns = Histogram.percentile latencies 50.;
    p99_ns = Histogram.percentile latencies 99.;
    completed = !completed;
  }
