(* Dev builds compile every library [-opaque], so a [float] passed to,
   or returned from, a function here is boxed: these take float cells
   and arrays with int indices, and hand Trace its times the same way.
   A float the kernel already holds boxed in its closure, such as
   [half], passes as it is. *)

module Heap = Xc_sim.Heap
module Histogram = Xc_sim.Histogram
module Metrics = Xc_sim.Metrics
module Trace = Xc_trace.Trace

let run ?until heap clock handle =
  let stop = match until with Some stop -> stop | None -> Float.infinity in
  let events = ref 0 in
  let dt = Metrics.interval_ns () in
  if Metrics.on () then Metrics.start_run ();
  while (not (Heap.is_empty heap)) && (Heap.keys heap).(0) <= stop do
    let code = Heap.top heap and at = (Heap.keys heap).(0) in
    Heap.drop heap;
    (* Snapshot telemetry at every interval boundary the clock jump
       crosses, before the event runs.  The test is the one
       [Metrics.sample_boundaries] makes, so only a jump that crosses a
       boundary passes it the two times, boxed. *)
    if Metrics.on () && Float.floor (at /. dt) >= Float.floor (clock.(0) /. dt) +. 1. then
      Metrics.sample_boundaries ~from:clock.(0) ~until:at;
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

(* A kernel lays out one bundle at a time, so the kernels on a domain
   share one cell, and an untraced run allocates none. *)
let rows_key = Domain.DLS.new_key (fun () -> Array.make 3 0.)
let rows () = Domain.DLS.get rows_key

let request lane rows ~bundle ~name ~index ~half sent i clock =
  let now = clock.(0) and sent_at = sent.(i) in
  let shift =
    let cur = lane.cursor in
    lane.cursor <- cur +. (now -. sent_at);
    cur -. sent_at
  in
  lane.shift <- shift;
  rows.(0) <- sent_at +. shift;
  rows.(1) <- now -. sent_at;
  Trace.span_at ~id:index ~cat:"request" ~name rows;
  if bundle && half > 0. then begin
    rows.(1) <- half;
    Trace.span_at ~id:0 ~cat:"net.hop" ~name:"client->server" rows
  end

(* [Float.min] written out, NaN included, so that no float is passed
   boxed: a row clamped to nothing, or to NaN, is skipped. *)
let lay_row rows cat name =
  let at = rows.(0) and ns = rows.(1) in
  let room = rows.(2) -. at in
  let d = if room < ns then room else ns in
  if d > 0. && room = room then begin
    rows.(1) <- d;
    Trace.span_at ~id:0 ~cat ~name rows;
    rows.(0) <- at +. d
  end

let rec lay_rows rows = function
  | [] -> ()
  | (cat, name, ns) :: rest ->
      rows.(1) <- ns;
      lay_row rows cat name;
      lay_rows rows rest

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b
