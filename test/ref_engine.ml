(* The closure-driven engine the kernels replaced: callbacks at
   absolute simulated times, run in timestamp order (insertion order
   among ties).  The differential references (Ref_loops, Ref_cluster)
   run on it, and each [run] credits its dispatches to
   [Xc_sim.Engine.domain_events], as the kernels do. *)

module Heap = Xc_sim.Heap
module Metrics = Xc_sim.Metrics

type t = {
  mutable clock : float;
  queue : (t -> unit) Heap.t;
  (* Fast lane for events scheduled at exactly the current timestamp
     (immediate wake-ups, zero-delay cascades): a plain FIFO, no
     O(log n) heap traffic.  Invariant: every lane entry is due at
     [clock], so the lane must drain before the clock may advance. *)
  lane : (t -> unit) Queue.t;
  mutable executed : int;
}

let create () = { clock = 0.; queue = Heap.create (); lane = Queue.create (); executed = 0 }
let now t = t.clock
let events_executed t = t.executed

let schedule t at f =
  let c = Float.compare at t.clock in
  if c < 0 then invalid_arg "Engine.schedule: event in the past"
  else if c = 0 then Queue.add f t.lane
  else Heap.push t.queue at f

let pending t = Heap.length t.queue + Queue.length t.lane

(* Advance the sim clock, snapshotting the telemetry registry at every
   interval boundary the jump crosses (before the event at [at] runs).
   Telemetry off = one atomic load per clock advance. *)
let advance t at =
  if Metrics.on () then Metrics.sample_boundaries ~from:t.clock ~until:at;
  t.clock <- at

let exec t f =
  t.executed <- t.executed + 1;
  f t;
  true

(* Dispatch the heap's minimum.  The key is read in place: a popped
   [(key, f)] option would allocate on every event. *)
let exec_top t =
  let f = Heap.top t.queue in
  advance t (Heap.keys t.queue).(0);
  Heap.drop t.queue;
  exec t f

let step t =
  if Queue.is_empty t.lane then (not (Heap.is_empty t.queue)) && exec_top t
  (* A heap event still due at the current timestamp was scheduled
     before anything in the lane (scheduling at [clock] always goes
     to the lane), so FIFO-among-equal-timestamps spans both. *)
  else if (not (Heap.is_empty t.queue)) && (Heap.keys t.queue).(0) <= t.clock then
    exec_top t
  else exec t (Queue.pop t.lane)

(* Run until the queue drains or the clock would pass [until].  With
   [until], the clock is left at exactly [until] if reached. *)
let run ?until t =
  let before = t.executed in
  (match until with
  | None -> while step t do () done
  | Some stop ->
      (* The next event is due by [stop]: the lane's at [clock], else
         the heap's minimum. *)
      let due () =
        if not (Queue.is_empty t.lane) then Float.compare t.clock stop <= 0
        else
          (not (Heap.is_empty t.queue))
          && Float.compare (Heap.keys t.queue).(0) stop <= 0
      in
      while due () do ignore (step t) done;
      advance t (Float.max t.clock stop));
  Xc_sim.Engine.add_domain_events (t.executed - before)
