module Heap = Xc_sim.Heap
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram
module Metrics = Xc_sim.Metrics
module Trace = Xc_trace.Trace

type mode = Flat | Hierarchical

type fidelity = Exact | Fluid | Mixed of { sample_rate : int }

(* A core runs one entity for at most this much core time before the
   scheduler rotates. *)
let timeslice_ns = 1e6

(* Schedulable entities: one per container (a vCPU) under Hierarchical,
   one per process under Flat, and a container runs one process per
   stage. *)
let entities mode ~containers ~stages =
  match mode with Hierarchical -> containers | Flat -> containers * stages

type config = {
  mode : mode;
  pcpus : int;
  containers : int;
  connections_per_container : int;
  stage_cpu_ns : float array;
  client_rtt_ns : float;
  container_switch_ns : runnable:int -> float;
  process_switch_ns : float;
  duration_ns : float;
  warmup_ns : float;
  seed : int;
  request_mech : (string * string * float) list array;
  lb : Xc_lb.Policy.hedge option;
}

let default_config mode ~containers =
  {
    mode;
    pcpus = 16;
    containers;
    connections_per_container = 5;
    (* NGINX front half -> FPM worker -> opcache/session helper ->
       logger: the four processes of the webdevops container each touch
       the request. *)
    stage_cpu_ns = [| 60_000.; 290_000.; 75_000.; 75_000. |];
    client_rtt_ns = 25e6;
    container_switch_ns =
      (fun ~runnable ->
        Xc_cpu.Costs.context_switch_base_ns
        +. (Xc_cpu.Costs.runqueue_ns_per_task *. float_of_int runnable)
        +. Platform.llc_pressure_ns ~runnable
        +. Xc_cpu.Costs.tlb_refill_user_ns +. Xc_cpu.Costs.tlb_refill_kernel_ns);
    process_switch_ns =
      Xc_cpu.Costs.context_switch_base_ns +. Xc_cpu.Costs.cr3_switch_ns
      +. Xc_cpu.Costs.tlb_refill_user_ns;
    duration_ns = 3e8;
    warmup_ns = 5e7;
    seed = 17;
    request_mech = [||];
    lb = None;
  }

type result = {
  throughput_rps : float;
  mean_latency_ns : float;
  p99_latency_ns : float;
  container_switches : int;
  process_switches : int;
  switch_overhead_ns : float;
  busy_fraction : float;
}

(* The envelope [run] and [run_fluid] accept, checked once up front so
   a bad field is refused by name instead of returning NaN or failing
   mid-run.  Returns the container switch priced at the run's entity
   population; every in-tree producer builds a pure closure, so one
   call stands for all of them. *)
let validate fn config =
  let bad field what = invalid_arg (Printf.sprintf "Cluster_sim.%s: %s %s" fn field what) in
  let at_least field lo v =
    if v < lo then bad field (Printf.sprintf "must be >= %d (got %d)" lo v)
  in
  let nonneg field x =
    if not (Float.is_finite x && x >= 0.) then
      bad field (Printf.sprintf "must be finite and >= 0 (got %g)" x)
  in
  let n_stages = Array.length config.stage_cpu_ns in
  if n_stages = 0 then invalid_arg (Printf.sprintf "Cluster_sim.%s: stages" fn);
  at_least "pcpus" 1 config.pcpus;
  at_least "containers" 0 config.containers;
  at_least "connections_per_container" 0 config.connections_per_container;
  if not (Float.is_finite config.duration_ns && config.duration_ns > 0.) then
    bad "duration_ns" (Printf.sprintf "must be finite and > 0 (got %g)" config.duration_ns);
  nonneg "warmup_ns" config.warmup_ns;
  nonneg "client_rtt_ns" config.client_rtt_ns;
  nonneg "process_switch_ns" config.process_switch_ns;
  Array.iteri (fun i ns -> nonneg (Printf.sprintf "stage_cpu_ns.(%d)" i) ns) config.stage_cpu_ns;
  let mechs = Array.length config.request_mech in
  if mechs <> 0 && mechs <> n_stages then
    bad "request_mech"
      (Printf.sprintf "must be empty or one entry per stage (got %d for %d stages)" mechs
         n_stages);
  let cswitch =
    config.container_switch_ns
      ~runnable:(entities config.mode ~containers:config.containers ~stages:n_stages)
  in
  nonneg "container_switch_ns" cswitch;
  cswitch

(* Fixed-capacity int ring (the ready queue, the idle-core pool).  The
   queued/idle flags bound occupancy — an entity is enqueued at most
   once, a core parked at most once — so no growth path is needed and
   FIFO order is exactly what [Queue.t] gave. *)
module Ring = struct
  type t = { buf : int array; mutable head : int; mutable tail : int }

  let make cap = { buf = Array.make (Stdlib.max cap 1 + 1) 0; head = 0; tail = 0 }

  let add t v =
    t.buf.(t.tail) <- v;
    t.tail <- (t.tail + 1) mod Array.length t.buf

  (* The oldest entry, or -1 when empty (entries are indices). *)
  let take t =
    if t.head = t.tail then -1
    else begin
      let v = t.buf.(t.head) in
      t.head <- (t.head + 1) mod Array.length t.buf;
      v
    end

  let length t =
    let n = t.tail - t.head in
    if n < 0 then n + Array.length t.buf else n
end

(* Event codes: the kind in the low two bits, its index above. *)
let first_send = 0 (* index: the client's container *)
let arrival = 1 (* index: the request *)
let slice_end = 2 (* index: the core *)
let response = 3 (* index: the winning burst *)

(* The exact tier's kernel.  Events are int codes that [Dispatch.run]
   pops from one [Heap] in (time, insertion) order — the closure
   engine's order, its same-instant lane included, since everything
   scheduled at the current instant was inserted after every event
   already due then.  All state is struct-of-arrays:

   - a request slot [r] holds its client ([origin]), send time and,
     under [lb], the hedge time its losing clones burnt.  Its [clones]
     bursts (one without [lb]) are the burst slots [r * clones + k], in
     [pick_set] order.  [live] counts its bursts not yet torn down: a
     cancelled loser still charges its in-flight slice to [hedge] after
     the winner responded, so the slot returns to the free stack only
     at zero.  Slots grow by doubling.
   - a burst [b] holds its target container, stage, remaining and
     burnt core time, switch time charged, the cancelled flag and its
     entity's FIFO link [next].
   - a core [i] holds what it last ran, its current entity and slice
     budget, and while a slice runs its burst, switch cost and slice.

   Dev builds compile every library [-opaque], so a [float] crossing a
   call or stored in a mutable field is boxed: floats live in float
   arrays and helpers take int indices.  What still allocates per
   event is [Heap.push]'s key and [Histogram.add]'s sample, plus under
   [lb] the [pick_set] list and its k-slot buffer. *)
let run config =
  let cswitch = validate "run" config in
  let rng = Prng.create config.seed in
  (* Hedged dispatch: the policy's probe PRNG is seeded from the
     experiment seed, never from global state, so traced runs stay
     deterministic at any --jobs. *)
  let pol, clones =
    match config.lb with
    | None -> (None, 1)
    | Some { Xc_lb.Policy.kind; clones } ->
        if clones < 1 || clones > config.containers then
          invalid_arg "Cluster_sim.run: clones must be in [1, containers]";
        ( Some
            (Xc_lb.Policy.create ~seed:(config.seed lxor 0x2545f491)
               ~backends:config.containers kind),
          clones )
  in
  let heap = Heap.create () in
  let clock = [| 0. |] in
  (* Throughput comes from the window's completion census: gating on
     the send time too, as the measured requests must, would drop the
     last ~latency of the window and bias the rate low by
     latency/duration. *)
  let w = Dispatch.window ~warmup_ns:config.warmup_ns ~duration_ns:config.duration_ns in
  let container_switches = ref 0 in
  let process_switches = ref 0 in
  let half = config.client_rtt_ns /. 2. in
  let n_stages = Array.length config.stage_cpu_ns in
  let bundle = Array.length config.request_mech > 0 in
  let lane = Dispatch.lane w ~rtt_ns:config.client_rtt_ns in
  (* Busy core time and switch overhead. *)
  let busy = 0 and overhead = 1 in
  let sums = [| 0.; 0. |] in
  let hedge_row = Printf.sprintf "clone-x%d" clones in

  let n_entities =
    entities config.mode ~containers:config.containers ~stages:n_stages
  in
  let queued = Bytes.make n_entities '\000' in
  let held = Bytes.make n_entities '\000' in
  let work_head = Array.make n_entities (-1) in
  let work_tail = Array.make n_entities (-1) in
  let ready = Ring.make n_entities in

  let slots = Stdlib.max 1 (config.containers * config.connections_per_container) in
  let origin = ref (Array.make slots 0) and sent = ref (Array.make slots 0.) in
  let hedge = ref (Array.make slots 0.) and live = ref (Array.make slots 0) in
  let bursts = slots * clones in
  let target = ref (Array.make bursts 0) and stage = ref (Array.make bursts 0) in
  let remaining = ref (Array.make bursts 0.) and burnt = ref (Array.make bursts 0.) in
  let switched = ref (Array.make bursts 0.) and cancelled = ref (Array.make bursts false) in
  let next = ref (Array.make bursts (-1)) in
  let free = ref (Array.make slots 0) and n_free = ref 0 and fresh = ref 0 in
  let take_request () =
    if !n_free > 0 then begin
      decr n_free;
      !free.(!n_free)
    end
    else begin
      let r = !fresh in
      incr fresh;
      if r = Array.length !origin then begin
        origin := Dispatch.grow !origin 0;
        sent := Dispatch.grow !sent 0.;
        hedge := Dispatch.grow !hedge 0.;
        live := Dispatch.grow !live 0;
        target := Dispatch.grow !target 0;
        stage := Dispatch.grow !stage 0;
        remaining := Dispatch.grow !remaining 0.;
        burnt := Dispatch.grow !burnt 0.;
        switched := Dispatch.grow !switched 0.;
        cancelled := Dispatch.grow !cancelled false;
        next := Dispatch.grow !next (-1);
        free := Dispatch.grow !free 0
      end;
      r
    end
  in
  let release b =
    let r = b / clones in
    !live.(r) <- !live.(r) - 1;
    if !live.(r) = 0 then begin
      !free.(!n_free) <- r;
      incr n_free
    end
  in
  let init_burst b container =
    !target.(b) <- container;
    !stage.(b) <- 0;
    !remaining.(b) <- config.stage_cpu_ns.(0);
    !burnt.(b) <- 0.;
    !switched.(b) <- 0.;
    !cancelled.(b) <- false;
    !next.(b) <- -1
  in
  (* A burst sits in at most one work list at a time, so one link per
     burst makes each entity's FIFO. *)
  let work_push e b =
    !next.(b) <- -1;
    let t = work_tail.(e) in
    if t >= 0 then !next.(t) <- b else work_head.(e) <- b;
    work_tail.(e) <- b
  in
  let work_pop e =
    let b = work_head.(e) in
    if b >= 0 then begin
      let n = !next.(b) in
      work_head.(e) <- n;
      if n < 0 then work_tail.(e) <- -1;
      !next.(b) <- -1
    end;
    b
  in
  let entity_of b =
    match config.mode with
    | Hierarchical -> !target.(b)
    | Flat -> (!target.(b) * n_stages) + !stage.(b)
  in
  let note_enqueue b =
    match pol with Some p -> Xc_lb.Policy.enqueue p !target.(b) | None -> ()
  in
  let note_dequeue b =
    match pol with Some p -> Xc_lb.Policy.dequeue p !target.(b) | None -> ()
  in
  (* Telemetry: the scheduler this driver models belongs to a different
     substrate per mode — the hypervisor's credit scheduler over vCPUs
     under Hierarchical, the host kernel's scheduler over processes
     under Flat — so its metrics land in that substrate's category. *)
  let sched_cat =
    match config.mode with Hierarchical -> "hypervisor" | Flat -> "os"
  in
  let slice_name =
    match config.mode with Hierarchical -> "credit-slices" | Flat -> "cfs-slices"
  in
  let cswitch_cat, cswitch_name =
    match config.mode with
    | Hierarchical -> ("hypervisor", "vcpu-switches")
    | Flat -> ("os", "container-switches")
  in
  let note_ready () =
    if Metrics.on () then
      Metrics.gauge_set ~cat:sched_cat ~name:"ready-queue"
        (float_of_int (Ring.length ready))
  in
  (* top(1)'s "Tasks:" line — how many schedulable entities this
     scheduler owns (vCPUs under the hypervisor, processes under the
     host kernel). *)
  if Metrics.on () then
    Metrics.gauge_set ~cat:sched_cat
      ~name:(match config.mode with Hierarchical -> "vcpus" | Flat -> "tasks")
      (float_of_int n_entities);
  let last_container = Array.make config.pcpus (-1) in
  let last_process = Array.make config.pcpus (-1) in
  let cur_entity = Array.make config.pcpus (-1) in
  let slice_used = Array.make config.pcpus 0. in
  let idle = Array.make config.pcpus true in
  (* The running slice: its burst, switch cost and length.  Its entity
     is [cur_entity], which only the core's own dispatch changes. *)
  let run_burst = Array.make config.pcpus (-1) in
  let run_switch = Array.make config.pcpus 0. in
  let run_slice = Array.make config.pcpus 0. in
  let idle_cores = Ring.make config.pcpus in
  for i = 0 to config.pcpus - 1 do
    Ring.add idle_cores i
  done;

  let rec wake_core () =
    let i = Ring.take idle_cores in
    if i >= 0 then
      if idle.(i) then begin
        idle.(i) <- false;
        Metrics.gauge_add ~cat:"cpu" ~name:"cores-busy" 1.;
        dispatch i
      end
      else wake_core ()

  and enqueue b =
    let e = entity_of b in
    note_enqueue b;
    work_push e b;
    if Bytes.get queued e = '\000' && Bytes.get held e = '\000' then begin
      Bytes.set queued e '\001';
      Ring.add ready e;
      note_ready ();
      wake_core ()
    end

  and finish b =
    (* Cancel-on-first-complete: the first clone through all stages
       wins; siblings are torn down at their next scheduling point and
       their remaining stages refunded (never enqueued again).  The
       core time losers already burnt is charged to the set as hedge
       overhead.  Only a set's first clone gets here: a cancelled burst
       never advances. *)
    let r = b / clones in
    (match pol with
    | Some p ->
        Xc_lb.Policy.complete p !target.(b);
        for sib = r * clones to (r * clones) + clones - 1 do
          if sib <> b then begin
            !cancelled.(sib) <- true;
            !hedge.(r) <- !hedge.(r) +. !burnt.(sib);
            Xc_lb.Policy.complete p !target.(sib);
            if Metrics.on () then Metrics.counter_incr ~cat:"lb" ~name:"clones-cancelled"
          end
        done
    | None -> ());
    if Metrics.on () then begin
      Metrics.gauge_add ~cat:"net" ~name:"in-flight" 1.;
      Metrics.counter_incr ~cat:"net" ~name:"messages"
    end;
    Heap.push heap (clock.(0) +. half) ((b lsl 2) lor response)

  and advance b =
    let s = !stage.(b) + 1 in
    !stage.(b) <- s;
    if s >= n_stages then finish b
    else begin
      !remaining.(b) <- config.stage_cpu_ns.(s);
      enqueue b
    end

  (* Pick the next entity for a core, honouring slice budgets; -1 when
     nothing is runnable. *)
  and pick_entity i =
    let e = cur_entity.(i) in
    if e >= 0 && work_head.(e) >= 0 && slice_used.(i) < timeslice_ns then e
    else begin
      (* Release the current entity. *)
      if e >= 0 then begin
        Bytes.set held e '\000';
        if work_head.(e) >= 0 && Bytes.get queued e = '\000' then begin
          Bytes.set queued e '\001';
          Ring.add ready e;
          note_ready ()
        end;
        cur_entity.(i) <- -1
      end;
      let e = Ring.take ready in
      if e >= 0 then begin
        Bytes.set queued e '\000';
        Bytes.set held e '\001';
        cur_entity.(i) <- e;
        slice_used.(i) <- 0.;
        note_ready ()
      end;
      e
    end

  and dispatch i =
    let e = pick_entity i in
    if e < 0 then begin
      idle.(i) <- true;
      cur_entity.(i) <- -1;
      Metrics.gauge_add ~cat:"cpu" ~name:"cores-busy" (-1.);
      Ring.add idle_cores i
    end
    else
      let b = work_pop e in
      if b < 0 then (* Raced empty; retry. *)
        dispatch i
      else if !cancelled.(b) then begin
        (* A sibling clone finished first: tear the loser down at its
           scheduling point, for free — the refund of its remaining
           work. *)
        note_dequeue b;
        release b;
        dispatch i
      end
      else begin
        note_dequeue b;
        let now = clock.(0) in
        let c = !target.(b) and s = !stage.(b) in
        (* Switch-cost accounting. *)
        let container_switch = last_container.(i) <> c in
        let switch_cost =
          if container_switch then begin
            incr container_switches;
            Metrics.counter_incr ~cat:cswitch_cat ~name:cswitch_name;
            (* The bookkeeping term scales with the task population
               this scheduler manages (CFS statistics, cgroup walks,
               load-balancer scans touch per-task state): all 4N
               processes under Flat, N vCPUs under Hierarchical.  The
               instantaneous queue length [ready + held] is much
               smaller, but the cold state is still resident. *)
            cswitch
          end
          else if last_process.(i) <> s then begin
            incr process_switches;
            Metrics.counter_incr ~cat:"os" ~name:"ctx-switches";
            config.process_switch_ns
          end
          else 0.
        in
        !switched.(b) <- !switched.(b) +. switch_cost;
        (* Per-dispatch switch spans only when no per-request bundle is
           configured: the bundle carries the same time as one exact
           per-request [ctx-switch] row, and emitting both would
           double-count switching in summaries. *)
        if switch_cost > 0. && (not bundle) && Trace.enabled () then begin
          let rows = Dispatch.rows () in
          rows.(0) <- now;
          rows.(1) <- switch_cost;
          Trace.span_at ~id:0 ~cat:"ctx-switch"
            ~name:(if container_switch then "container" else "process")
            rows
        end;
        last_container.(i) <- c;
        last_process.(i) <- s;
        let slice = Float.min !remaining.(b) (timeslice_ns -. slice_used.(i)) in
        let slice = Float.max slice 1_000. in
        sums.(overhead) <- sums.(overhead) +. switch_cost;
        sums.(busy) <- sums.(busy) +. switch_cost +. slice;
        slice_used.(i) <- slice_used.(i) +. slice;
        if Metrics.on () then begin
          Metrics.counter_incr ~cat:sched_cat ~name:slice_name;
          if now > 0. then
            Metrics.gauge_set ~cat:"platform" ~name:"vcpu-utilization"
              (sums.(busy) /. (float_of_int config.pcpus *. now))
        end;
        run_burst.(i) <- b;
        run_switch.(i) <- switch_cost;
        run_slice.(i) <- slice;
        Heap.push heap (now +. switch_cost +. slice) ((i lsl 2) lor slice_end)
      end
  in

  let end_slice i =
    let b = run_burst.(i) in
    let switch_cost = run_switch.(i) and slice = run_slice.(i) in
    !burnt.(b) <- !burnt.(b) +. switch_cost +. slice;
    !remaining.(b) <- !remaining.(b) -. slice;
    if !cancelled.(b) then begin
      (* Cancelled mid-slice: the slice still burnt core time, so it
         counts as hedge overhead; the rest of the clone is dropped. *)
      let r = b / clones in
      !hedge.(r) <- !hedge.(r) +. switch_cost +. slice;
      release b
    end
    else if !remaining.(b) > 1. then begin
      note_enqueue b;
      work_push cur_entity.(i) b
    end
    else advance b;
    dispatch i
  in

  let send container =
    let r = take_request () in
    !origin.(r) <- container;
    !sent.(r) <- clock.(0);
    !hedge.(r) <- 0.;
    !live.(r) <- clones;
    if Metrics.on () then begin
      Metrics.gauge_add ~cat:"platform" ~name:"in-flight" 1.;
      Metrics.gauge_add ~cat:"net" ~name:"in-flight" 1.;
      Metrics.counter_incr ~cat:"net" ~name:"messages"
    end;
    Heap.push heap (clock.(0) +. half) ((r lsl 2) lor arrival)
  in

  let rec fan_out p b = function
    | [] -> ()
    | container :: rest ->
        init_burst b container;
        Xc_lb.Policy.admit p container;
        enqueue b;
        fan_out p (b + 1) rest
  in
  let arrive r =
    Metrics.gauge_add ~cat:"net" ~name:"in-flight" (-1.);
    match pol with
    | None ->
        init_burst r !origin.(r);
        enqueue r
    | Some p ->
        (* The balancer picks on arrival, observing the in-flight and
           queue state of that instant, and fans the request out to
           [clones] distinct backends. *)
        let targets = Xc_lb.Policy.pick_set p ~clones in
        if Metrics.on () then begin
          Metrics.counter_incr ~cat:"lb" ~name:"requests";
          Metrics.counter_add ~cat:"lb" ~name:"clones-spawned" (float_of_int clones)
        end;
        fan_out p (r * clones) targets
  in

  (* The bundle's middle rows, nested inside the request window after
     the client->server hop: each stage's mechanism decomposition laid
     out serially and clamped to the window, and one exact
     [ctx-switch] row carrying the scheduler switch time this request
     was actually charged (accumulated per burst in [dispatch]).  Then
     the return hop.  Scheduling and queueing delay stay request
     self-time. *)
  let emit_bundle b =
    let rows = Dispatch.rows () in
    let now = clock.(0) and shift = lane.shift and sent_at = !sent.(b / clones) in
    rows.(0) <- sent_at +. shift +. half;
    rows.(2) <- now +. shift -. half;
    for stage = 0 to Array.length config.request_mech - 1 do
      Dispatch.lay_rows rows config.request_mech.(stage)
    done;
    if !switched.(b) > 0. then begin
      rows.(1) <- !switched.(b);
      Dispatch.lay_row rows "ctx-switch" "sched"
    end;
    (* Hedge overhead: core time the losing clones burnt before
       cancellation, clamped like every other row (it accrues on other
       backends in parallel, so it can exceed the response window).
       The row name carries the clone fan-out; a floor of 1ns keeps the
       fan-out visible even when the siblings never started. *)
    if clones > 1 then begin
      let h = !hedge.(b / clones) in
      rows.(1) <- (if h < 1. then 1. else h);
      Dispatch.lay_row rows "lb.hedge" hedge_row
    end;
    if half > 0. then begin
      rows.(0) <- now +. shift -. half;
      rows.(1) <- half;
      Trace.span_at ~id:0 ~cat:"net.hop" ~name:"server->client" rows
    end
  in

  let respond b =
    let r = b / clones in
    if Metrics.on () then begin
      Metrics.gauge_add ~cat:"net" ~name:"in-flight" (-1.);
      Metrics.gauge_add ~cat:"platform" ~name:"in-flight" (-1.)
    end;
    if Dispatch.complete w !sent r clock then begin
      if Metrics.on () then begin
        Metrics.counter_incr ~cat:"platform" ~name:"requests";
        Metrics.hist_observe ~cat:"platform" ~name:"latency-ns" (clock.(0) -. !sent.(r))
      end;
      if Trace.enabled () then begin
        let rows = Dispatch.rows () in
        Dispatch.request lane rows ~bundle ~name:"cluster" ~index:w.completed ~half !sent r
          clock;
        if bundle then emit_bundle b
      end
    end;
    let client = !origin.(r) in
    release b;
    (* Closed loop: the client immediately sends the next request. *)
    if clock.(0) < w.end_ns then send client
  in

  (* Start the closed-loop clients, staggered. *)
  for c = 0 to config.containers - 1 do
    for _ = 1 to config.connections_per_container do
      Heap.push heap (Prng.float rng 1e6) ((c lsl 2) lor first_send)
    done
  done;
  let stop = w.end_ns +. config.client_rtt_ns in
  Dispatch.run ~until:stop heap clock (fun code ->
      let i = code lsr 2 in
      match code land 3 with
      | 0 -> send i
      | 1 -> arrive i
      | 2 -> end_slice i
      | _ -> respond i);
  {
    throughput_rps = float_of_int w.finished /. (config.duration_ns /. 1e9);
    mean_latency_ns = Histogram.mean w.latencies;
    p99_latency_ns = Histogram.percentile w.latencies 99.;
    container_switches = !container_switches;
    process_switches = !process_switches;
    switch_overhead_ns = sums.(overhead);
    busy_fraction = sums.(busy) /. (float_of_int config.pcpus *. stop);
  }

(* ---------------- Fluid fidelity tier ---------------- *)

(* Per-request scheduler-switch estimate for the fluid tier: the exact
   dispatcher charges a container switch per entity pickup and a
   process switch per same-container process change, so the estimate
   counts entity visits per request in two regimes and blends them by
   utilization.  Light load: the stage chain runs back-to-back on one
   core (1 container switch, then process switches between stages).
   Heavy load: under Hierarchical an entity visit drains ~a timeslice
   of queued bursts before the core rotates; under Flat every burst is
   its own entity and consecutive dispatches almost never share a
   container.  W is a few percent of the request demand, so the blend
   only needs to be roughly right — the queueing itself is MVA-exact. *)
let fluid_estimate config ~utilization =
  let n_stages = Array.length config.stage_cpu_ns in
  let n_entities =
    entities config.mode ~containers:config.containers ~stages:n_stages
  in
  let nf = float_of_int n_stages in
  let cs = config.container_switch_ns ~runnable:n_entities in
  let ps = config.process_switch_ns in
  (* The dispatcher never runs a slice shorter than 1us. *)
  let s_base =
    Array.fold_left (fun a s -> a +. Float.max s 1_000.) 0. config.stage_cpu_ns
  in
  let mean_stage = s_base /. nf in
  let c_heavy, p_heavy =
    match config.mode with
    | Flat ->
        (* Entities are single processes, so a visit drains queued
           bursts of the SAME process (other requests' stages): no
           switch at all between them.  Queues are shallower than the
           slice allows — sqrt of the slice capacity tracks the
           measured drain depth across the saturated range. *)
        let drain =
          Float.sqrt (Float.max 1. (timeslice_ns /. mean_stage))
        in
        (nf /. drain, 0.)
    | Hierarchical ->
        let bursts_per_visit =
          Float.max 1. (timeslice_ns /. mean_stage)
        in
        let visits = Float.max 1. (nf /. bursts_per_visit) in
        (visits, nf -. visits)
  in
  let c_light, p_light = (1., nf -. 1.) in
  let u = Float.max 0. (Float.min 1. utilization) in
  let cpr = (u *. c_heavy) +. ((1. -. u) *. c_light) in
  let ppr = (u *. p_heavy) +. ((1. -. u) *. p_light) in
  (s_base, cpr, ppr, (cpr *. cs) +. (ppr *. ps))

let run_fluid config =
  ignore (validate "run_fluid" config);
  let clients = config.containers * config.connections_per_container in
  let z = config.client_rtt_ns in
  let solve ~utilization =
    let s_base, cpr, ppr, w = fluid_estimate config ~utilization in
    let s_eff = s_base +. w in
    let o =
      Xc_lb.Oracle.closed_loop_mva ~servers:config.pcpus ~clients
        ~service_ns:s_eff ~think_ns:z
    in
    ( o.Xc_lb.Oracle.mean_ns,
      o.Xc_lb.Oracle.throughput_per_ns,
      o.Xc_lb.Oracle.utilization,
      cpr,
      ppr,
      w )
  in
  (* The switch blend depends on utilization, which depends on the
     switch blend; one re-solve from the first pass's utilization pins
     the fixed point (W moves S_eff by a few percent at most). *)
  let _, _, u0, _, _, _ = solve ~utilization:1. in
  let mean, x, u, cpr, ppr, w = solve ~utilization:u0 in
  let completed = x *. config.duration_ns in
  {
    throughput_rps = x *. 1e9;
    mean_latency_ns = mean;
    (* The fluid tier predicts means, not tails: p99 is NaN unless a
       sampled exact slice supplies it (the Mixed tier). *)
    p99_latency_ns = Float.nan;
    container_switches = int_of_float (cpr *. completed);
    process_switches = int_of_float (ppr *. completed);
    switch_overhead_ns = w *. completed;
    busy_fraction = u;
  }

let run_mixed ~sample_rate config =
  if sample_rate < 1 then
    invalid_arg "Cluster_sim.run_mixed: sample_rate must be >= 1";
  (* A 1-in-[sample_rate] slice of the containers re-runs through the
     exact per-request machinery, with the core count scaled to keep
     the per-core load comparable, so p99 attribution (and the trace
     bundles behind `--tail`) survive at fluid cost.  The slice is
     seeded from the config seed: deterministic at any --jobs. *)
  let sampled = Stdlib.max 1 (config.containers / sample_rate) in
  let scale = float_of_int sampled /. float_of_int config.containers in
  let slice_pcpus =
    Stdlib.max 1 (int_of_float (Float.round (float_of_int config.pcpus *. scale)))
  in
  let exact = run { config with containers = sampled; pcpus = slice_pcpus } in
  let fluid = run_fluid config in
  { fluid with p99_latency_ns = exact.p99_latency_ns }

let run_fidelity fidelity config =
  match fidelity with
  | Exact -> run config
  | Fluid -> run_fluid config
  | Mixed { sample_rate } -> run_mixed ~sample_rate config

(* ---------------- Platform-derived configs ---------------- *)

module K = Xc_os.Kernel

let rep n ops = List.concat (List.init n (fun _ -> ops))

(* The four processes of the webdevops-style PHP container and the
   syscall mix each one issues per request.  The counts are what make
   the platform's entry-path cost visible at the tail: ~160 syscalls
   per request across the stages, as in the paper's Fig 9 workload. *)
let stage_profiles =
  [|
    ( "nginx", 18_000.,
      rep 12 [ K.Epoll; K.Socket_recv 256; K.Socket_send 1024; K.Cheap Getpid ]
    );
    ( "php-fpm", 95_000.,
      rep 16 [ K.Stat_op; K.Open_op; K.File_read 4096; K.Cheap Close ]
      @ rep 8 [ K.Socket_send 512; K.Socket_recv 512 ] );
    ("opcache", 22_000., rep 8 [ K.Stat_op; K.File_read 2048; K.Cheap Fstat ]);
    ("logger", 12_000., rep 10 [ K.File_write 256 ]);
  |]

let config_of_platform ~containers ~connections ?lb platform =
  (* All platform cost queries happen here, before any traced run —
     the queries themselves emit trace spans when tracing is enabled,
     which would pollute the capture and break request attribution. *)
  let entry = Platform.syscall_entry_ns platform in
  let mech_of (_, user, ops) =
    let n = List.length ops in
    let work =
      List.fold_left
        (fun acc op -> acc +. (Platform.syscall_ns platform op -. entry))
        0. ops
    in
    [
      ("cpu", "user", user);
      ("syscall-entry", "entry", float_of_int n *. entry);
      ("syscall-work", "kernel", work);
    ]
  in
  let request_mech = Array.map mech_of stage_profiles in
  let stage_cpu_ns =
    Array.map (List.fold_left (fun a (_, _, ns) -> a +. ns) 0.) request_mech
  in
  let mode =
    if Platform.hierarchical_scheduling platform then Hierarchical else Flat
  in
  let n_entities =
    entities mode ~containers ~stages:(Array.length stage_profiles)
  in
  (* The runnable population is fixed for the whole run (closed loop,
     fixed container count), so the switch is priced once and wrapped
     in a constant closure — [run] must not call back into the
     platform mid-capture. *)
  let cswitch = Platform.container_switch_ns platform ~runnable:n_entities in
  let pswitch = Platform.process_switch_ns platform in
  {
    mode;
    pcpus = 16;
    containers;
    connections_per_container = connections;
    stage_cpu_ns;
    client_rtt_ns = 1e6;
    container_switch_ns = (fun ~runnable:_ -> cswitch);
    process_switch_ns = pswitch;
    duration_ns = 3e8;
    warmup_ns = 5e7;
    seed = 17;
    request_mech;
    lb;
  }
