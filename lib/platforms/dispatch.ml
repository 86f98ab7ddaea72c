(* Dev builds compile every library [-opaque], so a [float] passed to,
   or returned from, a function here is boxed: these take float cells
   and arrays with int indices.  A float the kernel already holds boxed
   in its closure, such as [half], passes as it is. *)

module Heap = Xc_sim.Heap
module Histogram = Xc_sim.Histogram
module Metrics = Xc_sim.Metrics
module Trace = Xc_trace.Trace

let run ?until heap clock handle =
  let stop = match until with Some stop -> stop | None -> Float.infinity in
  let events = ref 0 in
  while (not (Heap.is_empty heap)) && (Heap.keys heap).(0) <= stop do
    let code = Heap.top heap and at = (Heap.keys heap).(0) in
    Heap.drop heap;
    (* Snapshot telemetry at every interval boundary the clock jump
       crosses, before the event runs. *)
    if Metrics.on () then Metrics.sample_boundaries ~from:clock.(0) ~until:at;
    clock.(0) <- at;
    incr events;
    handle code
  done;
  (match until with
  | Some stop when Metrics.on () ->
      Metrics.sample_boundaries ~from:clock.(0) ~until:(Float.max clock.(0) stop)
  | _ -> ());
  Xc_sim.Engine.add_domain_events !events

type window = {
  start_ns : float;
  end_ns : float;
  latencies : Histogram.t;
  mutable completed : int;
  mutable finished : int;
}

let window ~warmup_ns ~duration_ns =
  {
    start_ns = warmup_ns;
    end_ns = warmup_ns +. duration_ns;
    latencies = Histogram.create ();
    completed = 0;
    finished = 0;
  }

let complete w sent i clock =
  let now = clock.(0) and sent_at = sent.(i) in
  if now >= w.start_ns && now <= w.end_ns then w.finished <- w.finished + 1;
  if sent_at >= w.start_ns && now <= w.end_ns then begin
    w.completed <- w.completed + 1;
    Histogram.add w.latencies (now -. sent_at);
    true
  end
  else false

type lane = { mutable cursor : float; mutable shift : float }

let lane w ~rtt_ns = { cursor = w.end_ns +. rtt_ns +. 1e9; shift = 0. }

let request lane ~bundle ~name ~index ~half sent i clock =
  let now = clock.(0) and sent_at = sent.(i) in
  let shift =
    if bundle then begin
      let cur = lane.cursor in
      lane.cursor <- cur +. (now -. sent_at);
      cur -. sent_at
    end
    else 0.
  in
  lane.shift <- shift;
  Trace.span_at ~at:(sent_at +. shift) ~value:(float_of_int index) ~cat:"request" ~name
    (now -. sent_at);
  if bundle && half > 0. then
    Trace.span_at ~at:(sent_at +. shift) ~cat:"net.hop" ~name:"client->server" half

(* The row cursor lives in a float cell and the loop has no closure, so
   a row boxes only its own time and duration. *)
let lay_row rows cat name ns =
  let at = rows.(0) in
  let d = Float.min ns (rows.(1) -. at) in
  if d > 0. then begin
    Trace.span_at ~at ~cat ~name d;
    rows.(0) <- at +. d
  end

let rec lay_rows rows = function
  | [] -> ()
  | (cat, name, ns) :: rest ->
      lay_row rows cat name ns;
      lay_rows rows rest

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b
