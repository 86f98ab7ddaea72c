(** The skeleton of the station ({!Station}) and exact cluster
    ({!Cluster_sim.run}) kernels, written once: the dispatch loop, the
    measurement window, the trace bundle lane and slot growth.  Each
    kernel keeps only its state and its handlers.  No function here
    takes or returns a [float] computed per event, so none boxes one. *)

val run : ?until:float -> int Xc_sim.Heap.t -> float array -> (int -> unit) -> unit
(** [run ?until heap clock handle] pops each event code in (time,
    insertion sequence) order, snapshots telemetry at every interval
    boundary the clock jump crosses, sets [clock.(0)] to the event's
    time and calls [handle code].  It runs until the heap is empty, or
    with [until] every event due by then, and then snapshots up to
    [until].  It credits its dispatches to
    {!Xc_sim.Engine.domain_events} once. *)

(** {1 The measurement window} *)

type window = {
  start_ns : float;  (** the warm-up's end *)
  end_ns : float;
  latencies : Xc_sim.Histogram.t;  (** the measured requests' *)
  mutable completed : int;  (** requests sent and answered inside the window *)
  mutable finished : int;  (** the census: every response inside the window *)
}

val window : warmup_ns:float -> duration_ns:float -> window

val complete : window -> float array -> int -> float array -> bool
(** [complete w sent i clock] counts the response at [clock.(0)] to
    the request sent at [sent.(i)] in the census, and as a measured
    request, with its latency, when both times fall inside the window.
    Returns whether it was measured. *)

(** {1 The bundle lane}

    A traced kernel re-bases each measured request onto a sequential
    lane past the end of the simulated timeline and, when it has a
    bundle, lays its mechanism rows out serially inside the request's
    window, so [Xc_trace.Profile.attribute] partitions it exactly;
    concurrent requests overlap in simulated time, which no containment
    sweep can partition.  A request without a bundle is all request
    self-time. *)

type lane = {
  mutable cursor : float;  (** where the next bundle starts *)
  mutable shift : float;  (** the last request's re-basing offset *)
}

val lane : window -> rtt_ns:float -> lane
(** A lane starting 1 s past [w.end_ns + rtt_ns]. *)

val rows : unit -> float array
(** This domain's row cell, [[| at; dur; end |]]: [at] and [dur] are
    the span cell [Xc_trace.Trace.span_at] reads, [end] the bound
    {!lay_row} clamps to.  A traced kernel writes every time of a
    bundle through it. *)

val request :
  lane -> float array -> bundle:bool -> name:string -> index:int -> half:float ->
  float array -> int -> float array -> unit
(** [request lane rows ~bundle ~name ~index ~half sent i clock] records
    the request sent at [sent.(i)] and answered at [clock.(0)] as a
    [request]/[name] span carrying [index], its completion index,
    through [rows].  The span moves to the lane's cursor and the
    cursor moves past it; with [bundle] a [client->server] hop of
    [half] opens the bundle when [half > 0.].  [lane.shift] is left at
    the offset applied, for the kernel's own rows and return hop. *)

val lay_row : float array -> string -> string -> unit
(** [lay_row rows cat name] records a [cat]/[name] span at [rows.(0)]
    of [rows.(1)] clamped to end by [rows.(2)], and moves [rows.(0)] to
    its end.  A row clamped to nothing is skipped. *)

val lay_rows : float array -> (string * string * float) list -> unit
(** {!lay_row} over [(cat, name, ns)] rows, in order. *)

val grow : 'a array -> 'a -> 'a array
(** [grow a fill]: slot array [a] at twice its length, padded with
    [fill]. *)
