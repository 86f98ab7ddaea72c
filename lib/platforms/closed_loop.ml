module Engine = Xc_sim.Engine
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram

type server = {
  units : int;
  service_ns : Prng.t -> float;
  overhead_ns : float;
}

type config = {
  connections : int;
  rtt_ns : float;
  duration_ns : float;
  warmup_ns : float;
  seed : int;
  trace_mechanisms : (string * string * float) list;
  lb : Xc_lb.Policy.hedge option;
}

let default_config =
  {
    connections = 32;
    rtt_ns = Xc_cpu.Costs.lan_rtt_ns;
    duration_ns = 2e9;
    warmup_ns = 2e8;
    seed = 42;
    trace_mechanisms = [];
    lb = None;
  }

type result = {
  throughput_rps : float;
  mean_latency_ns : float;
  p50_ns : float;
  p99_ns : float;
  completed : int;
}

(* Per-server mutable state during a run. *)
type state = {
  server : server;
  unit_free : float array; (* next-free absolute time per service unit *)
  latencies : Histogram.t;
  mutable completed : int;
  rng : Prng.t;
}

let least_loaded st =
  let best = ref 0 in
  for i = 1 to Array.length st.unit_free - 1 do
    if st.unit_free.(i) < st.unit_free.(!best) then best := i
  done;
  !best

let run_states config states =
  let engine = Engine.create () in
  let measure_start = config.warmup_ns in
  let measure_end = config.warmup_ns +. config.duration_ns in
  (* Bundle lane for tail attribution: when [trace_mechanisms] is set,
     each measured request's spans (request + synthetic children) are
     re-based onto a sequential region past the end of the simulated
     timeline.  Concurrent requests genuinely overlap in simulated
     time, and overlapping windows cannot be partitioned exactly by a
     containment sweep; packing the bundles end to end makes
     [Profile.attribute] exact.  The cursor is shared by every server
     in the run so bundles never collide across states. *)
  let synth_cursor = ref (measure_end +. config.rtt_ns +. 1e9) in
  let rec client_loop (st, pol) _engine =
    let now = Engine.now engine in
    if now < measure_end then begin
      let sent_at = now in
      (* Request reaches the server after half an RTT. *)
      let arrival = now +. (config.rtt_ns /. 2.) in
      let start, finish, hedge_ns, fanout =
        match pol with
        | None ->
            let u = least_loaded st in
            let start = Float.max arrival st.unit_free.(u) in
            let service = st.server.service_ns st.rng +. st.server.overhead_ns in
            let finish = start +. service in
            st.unit_free.(u) <- finish;
            (start, finish, 0., 1)
        | Some (p, d) ->
            (* Hedged dispatch over the service units: the policy picks
               [d] distinct units, every clone gets the same sampled
               requirement (synchronized service), and since the units
               serve FIFO the winner is known at booking time — the
               clone with the earliest start.  Losing clones occupy
               their unit only until the winner finishes
               (cancel-on-first-complete); a clone that would start
               after that point never runs at all, a full refund. *)
            let targets = Xc_lb.Policy.pick_set p ~clones:d in
            let service = st.server.service_ns st.rng +. st.server.overhead_ns in
            let bookings =
              List.map (fun u -> (u, Float.max arrival st.unit_free.(u))) targets
            in
            let wu, wstart =
              match bookings with
              | [] -> assert false
              | first :: rest ->
                  List.fold_left
                    (fun (bu, bs) (u, s) -> if s < bs then (u, s) else (bu, bs))
                    first rest
            in
            let tstar = wstart +. service in
            let hedge = ref 0. in
            List.iter
              (fun (u, s) ->
                if u = wu || s < tstar then begin
                  (* The winner runs to completion; a started sibling
                     holds its unit until cancellation at [tstar]. *)
                  if u <> wu then hedge := !hedge +. (tstar -. s);
                  st.unit_free.(u) <- tstar;
                  Xc_lb.Policy.admit p u;
                  Engine.schedule engine tstar (fun _ ->
                      Xc_lb.Policy.complete p u)
                end)
              bookings;
            if Xc_sim.Metrics.on () then begin
              Xc_sim.Metrics.counter_incr ~cat:"lb" ~name:"requests";
              Xc_sim.Metrics.counter_add ~cat:"lb" ~name:"clones-spawned"
                (float_of_int d);
              if d > 1 then
                Xc_sim.Metrics.counter_add ~cat:"lb" ~name:"clones-cancelled"
                  (float_of_int (d - 1))
            end;
            (wstart, tstar, !hedge, d)
      in
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
            st.completed <- st.completed + 1;
            Histogram.add st.latencies (now -. sent_at);
            if Xc_sim.Metrics.on () then begin
              Xc_sim.Metrics.counter_incr ~cat:"platform" ~name:"requests";
              Xc_sim.Metrics.hist_observe ~cat:"platform" ~name:"latency-ns"
                (now -. sent_at)
            end;
            if Xc_trace.Trace.enabled () then begin
              (* value = per-server completion index: a stable request
                 id that per-request tooling (Profile.attribute) reads
                 back from the span. *)
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
                ~value:(float_of_int st.completed) ~cat:"request"
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
                (* Hedge overhead: unit time the losing clones held
                   before cancellation, clamped like the mechanism
                   rows; the name carries the clone fan-out (1ns floor
                   keeps it visible when siblings never started). *)
                if fanout > 1 then begin
                  let d =
                    Float.min (Float.max hedge_ns 1.) (budget -. !cursor)
                  in
                  if d > 0. then begin
                    Xc_trace.Trace.span ~at:!cursor ~cat:"lb.hedge"
                      ~name:(Printf.sprintf "clone-x%d" fanout)
                      d;
                    cursor := !cursor +. d
                  end
                end;
                if half > 0. then
                  Xc_trace.Trace.span ~at:(finish +. shift) ~cat:"net.hop"
                    ~name:"server->client" half
              end
            end
          end;
          client_loop (st, pol) engine)
    end
  in
  let policies =
    match config.lb with
    | None -> List.map (fun _ -> None) states
    | Some { Xc_lb.Policy.kind; clones } ->
        if clones < 1 then invalid_arg "Closed_loop: clones must be >= 1";
        (* Per-server policy state, seeded from the experiment seed (not
           global state) so sharded traced runs stay deterministic; the
           clone factor is capped at the unit count. *)
        List.mapi
          (fun i (st : state) ->
            let units = Array.length st.unit_free in
            Some
              ( Xc_lb.Policy.create
                  ~seed:(config.seed + (i * 104729) + 1)
                  ~backends:units kind,
                Stdlib.min clones units ))
          states
  in
  List.iter2
    (fun st pol ->
      for _ = 1 to config.connections do
        (* Stagger initial sends a little to avoid a thundering herd. *)
        Engine.schedule engine (Prng.float st.rng 1e6) (fun engine ->
            client_loop (st, pol) engine)
      done)
    states policies;
  Engine.run engine;
  List.map
    (fun st ->
      {
        throughput_rps = float_of_int st.completed /. (config.duration_ns /. 1e9);
        mean_latency_ns = Histogram.mean st.latencies;
        p50_ns = Histogram.percentile st.latencies 50.;
        p99_ns = Histogram.percentile st.latencies 99.;
        completed = st.completed;
      })
    states

let make_state seed i server =
  {
    server;
    unit_free = Array.make (Stdlib.max 1 server.units) 0.;
    latencies = Histogram.create ();
    completed = 0;
    rng = Prng.create (seed + (i * 7919));
  }

let run config server =
  match run_states config [ make_state config.seed 0 server ] with
  | [ r ] -> r
  | _ -> assert false

let run_many config servers =
  run_states config (List.mapi (make_state config.seed) servers)
