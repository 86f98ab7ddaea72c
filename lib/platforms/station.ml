(* One queueing station under both request drivers.

   Events are int codes into struct-of-arrays request state, which
   [Dispatch.run] pops from one [Heap] in (time, insertion sequence)
   order — the closure engine's order, its same-timestamp fast lane
   included, since everything scheduled at the current instant was
   inserted after every event already due then.  Nothing on the
   per-event path takes or returns a [float] across a call except
   [Heap.push]'s key, [Prng.normal]/[Prng.exponential]'s draw and
   [Histogram.add]'s sample: dev builds compile every library
   [-opaque], so each such float is boxed.  Local helpers therefore
   read the clock from the [clock] cell, never from an argument. *)

module Heap = Xc_sim.Heap
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram
module Metrics = Xc_sim.Metrics
module Trace = Xc_trace.Trace

type server = { units : int; base_ns : float; stddev : float; floor : float }

type population =
  | Closed of {
      connections : int;
      rtt_ns : float;
      mechanisms : (string * string * float) list;
    }
  | Poisson of { rate_rps : float }

type result = { completed : int; latencies : Histogram.t; max_in_system : int }

(* The open loop's arrival process.  Every other open code is a
   request slot; a closed code [c >= 0] is connection [c]'s response
   and [-1 - c] its first send. *)
let arrival = -1

let run ~warmup_ns ~duration_ns ~seed population server =
  let rng = Prng.create seed in
  let heap = Heap.create () in
  let clock = [| 0. |] in
  let unit_free = Array.make (Stdlib.max 1 server.units) 0. in
  let w = Dispatch.window ~warmup_ns ~duration_ns in
  (* Request state by slot: sent (or arrived), service start and
     finish.  The closed loop's slots are its connections; the open
     loop takes slots from a free stack and grows them by doubling. *)
  let slots =
    match population with
    | Closed { connections; _ } -> Stdlib.max 0 connections
    | Poisson _ -> 64
  in
  let sent = ref (Array.make slots 0.) in
  let start = ref (Array.make slots 0.) in
  let finish = ref (Array.make slots 0.) in
  let half = match population with Closed c -> c.rtt_ns /. 2. | Poisson _ -> 0. in
  let schedule at code =
    if not (at >= clock.(0)) then invalid_arg "Station.run: event in the past or NaN";
    Heap.push heap at code
  in
  let least_loaded () =
    let best = ref 0 in
    for i = 1 to Array.length unit_free - 1 do
      if unit_free.(i) < unit_free.(!best) then best := i
    done;
    !best
  in
  (* Slot [i] reaches the server half an RTT after it was sent and
     waits FIFO for the unit that frees up first.  [stddev = 0.] draws
     nothing, so a constant server leaves the stream untouched. *)
  let book i =
    let u = least_loaded () in
    let s = Float.max (!sent.(i) +. half) unit_free.(u) in
    let service =
      if server.stddev = 0. then server.base_ns
      else
        server.base_ns
        *. Float.max server.floor (Prng.normal rng ~mean:1.0 ~stddev:server.stddev)
    in
    let f = s +. service in
    unit_free.(u) <- f;
    !start.(i) <- s;
    !finish.(i) <- f
  in
  let max_in_system = ref 0 in
  let handle =
    match population with
    | Closed { rtt_ns; mechanisms; _ } ->
        let bundle = mechanisms <> [] in
        let lane = Dispatch.lane w ~rtt_ns in
        (* The bundle's middle rows nest inside the request window so
           tail attribution can partition it exactly: queue wait, the
           configured mechanism decomposition laid out serially over
           the service window (clamped — jitter can make the sampled
           service shorter than the deterministic decomposition; any
           excess stays request self-time), and the return hop. *)
        let emit c =
          let rows = Dispatch.rows () in
          Dispatch.request lane rows ~bundle ~name:"closed-loop" ~index:w.completed ~half !sent
            c clock;
          if bundle then begin
            let shift = lane.shift in
            let arrive_at = !sent.(c) +. half in
            let start_at = !start.(c) and finish_at = !finish.(c) in
            if start_at -. arrive_at > 0. then begin
              rows.(0) <- arrive_at +. shift;
              rows.(1) <- start_at -. arrive_at;
              Trace.span_at ~id:0 ~cat:"sched" ~name:"queue-wait" rows
            end;
            rows.(0) <- start_at +. shift;
            rows.(2) <- finish_at +. shift;
            Dispatch.lay_rows rows mechanisms;
            if half > 0. then begin
              rows.(0) <- finish_at +. shift;
              rows.(1) <- half;
              Trace.span_at ~id:0 ~cat:"net.hop" ~name:"server->client" rows
            end
          end
        in
        let send c =
          let now = clock.(0) in
          if now < w.end_ns then begin
            !sent.(c) <- now;
            book c;
            if Metrics.on () then begin
              Metrics.gauge_add ~cat:"platform" ~name:"in-flight" 1.;
              Metrics.counter_incr ~cat:"net" ~name:"messages"
            end;
            schedule (!finish.(c) +. half) c
          end
        in
        let respond c =
          if Metrics.on () then Metrics.gauge_add ~cat:"platform" ~name:"in-flight" (-1.);
          if Dispatch.complete w !sent c clock then begin
            if Metrics.on () then begin
              Metrics.counter_incr ~cat:"platform" ~name:"requests";
              Metrics.hist_observe ~cat:"platform" ~name:"latency-ns" (clock.(0) -. !sent.(c))
            end;
            if Trace.enabled () then emit c
          end;
          send c
        in
        fun code -> if code < 0 then send (-1 - code) else respond code
    | Poisson { rate_rps } ->
        let mean_gap = 1e9 /. rate_rps in
        let in_system = ref 0 in
        let free = ref (Array.make slots 0) and n_free = ref 0 and fresh = ref 0 in
        let take_slot () =
          if !n_free > 0 then begin
            decr n_free;
            !free.(!n_free)
          end
          else begin
            let i = !fresh in
            incr fresh;
            if i = Array.length !sent then begin
              sent := Dispatch.grow !sent 0.;
              start := Dispatch.grow !start 0.;
              finish := Dispatch.grow !finish 0.;
              free := Dispatch.grow !free 0
            end;
            i
          end
        in
        let arrive () =
          let now = clock.(0) in
          if now < w.end_ns then begin
            incr in_system;
            if !in_system > !max_in_system then max_in_system := !in_system;
            let i = take_slot () in
            !sent.(i) <- now;
            book i;
            schedule !finish.(i) i;
            schedule (now +. Prng.exponential rng ~mean:mean_gap) arrival
          end
        in
        let complete i =
          decr in_system;
          !free.(!n_free) <- i;
          incr n_free;
          ignore (Dispatch.complete w !sent i clock)
        in
        fun code -> if code = arrival then arrive () else complete code
  in
  (match population with
  | Closed { connections; _ } ->
      (* Stagger initial sends a little to avoid a thundering herd. *)
      for c = 0 to connections - 1 do
        schedule (Prng.float rng 1e6) (-1 - c)
      done
  | Poisson _ -> schedule 0. arrival);
  Dispatch.run heap clock handle;
  { completed = w.completed; latencies = w.latencies; max_in_system = !max_in_system }
