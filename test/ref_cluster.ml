(* The exact cluster tier as it ran before the int-coded kernel: one
   Engine callback per event and one closure per burst and slice, with
   its trace bundles and telemetry.  It is the reference
   [Cluster_sim.run] is checked against bit for bit (test_cluster_sim). *)

module Engine = Ref_engine
module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram
open Xc_platforms.Cluster_sim

let timeslice_ns = 1e6

let entities mode ~containers ~stages =
  match mode with Hierarchical -> containers | Flat -> containers * stages

(* One CPU burst of a request on a specific process of a container:
   stage [i] runs on process [i], so [stage] names both.  Under hedged
   dispatch ([config.lb]) a request spawns one burst chain per clone,
   all pointing at a shared [clone_set]. *)
type burst = {
  container : int;
  mutable remaining : float;
  mutable stage : int;
  sent_at : float;
  mutable switch_ns : float;
      (* scheduler switch time charged while serving this request *)
  mutable cancelled : bool;  (* a sibling clone finished first *)
  mutable done_ns : float;  (* core time this clone has burnt so far *)
  set : clone_set option;
  mutable qnext : burst option;
      (* intrusive FIFO link: the next burst in its entity's work list.
         A burst sits in at most one work list at a time, so one link
         field replaces the per-entity [Queue.t] cells. *)
}

and clone_set = {
  origin : int;  (* client container the response goes back to *)
  fanout : int;
  mutable won : bool;
  mutable bursts : burst list;
  mutable hedge_ns : float;
      (* core time burnt by losing clones — the hedge overhead the
         winner's trace bundle carries as an [lb.hedge] row *)
}

(* A schedulable entity (a process under Flat, a container/vCPU under
   Hierarchical) is just an index: its state lives in unboxed parallel
   arrays inside [run] — [queued]/[held] flags packed into [Bytes.t],
   its work FIFO as head/tail slots over the bursts' intrusive [qnext]
   links.  Same move the [Heap] rework made for events: a million
   entities cost a few bytes each instead of a record + [Queue.t]. *)

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

  let take_opt t =
    if t.head = t.tail then None
    else begin
      let v = t.buf.(t.head) in
      t.head <- (t.head + 1) mod Array.length t.buf;
      Some v
    end

  let length t =
    let n = t.tail - t.head in
    if n < 0 then n + Array.length t.buf else n
end

type core_state = {
  mutable last_container : int;
  mutable last_process : int;
  mutable cur_entity : int;  (** -1 when idle *)
  mutable slice_used : float;
  mutable idle : bool;
}

let run config =
  if Array.length config.stage_cpu_ns = 0 then invalid_arg "Cluster_sim.run: stages";
  let engine = Engine.create () in
  let rng = Prng.create config.seed in
  (* Hedged dispatch: the policy's probe PRNG is seeded from the
     experiment seed, never from global state, so traced runs stay
     deterministic at any --jobs. *)
  let lb_state =
    match config.lb with
    | None -> None
    | Some { Xc_lb.Policy.kind; clones } ->
        if clones < 1 || clones > config.containers then
          invalid_arg "Cluster_sim.run: clones must be in [1, containers]";
        Some
          ( Xc_lb.Policy.create ~seed:(config.seed lxor 0x2545f491)
              ~backends:config.containers kind,
            clones )
  in
  let note_policy_enqueue (b : burst) =
    match lb_state with
    | Some (pol, _) -> Xc_lb.Policy.enqueue pol b.container
    | None -> ()
  in
  let note_policy_dequeue (b : burst) =
    match lb_state with
    | Some (pol, _) -> Xc_lb.Policy.dequeue pol b.container
    | None -> ()
  in
  let latencies = Histogram.create () in
  let completed = ref 0 in
  (* Throughput census: every response landing inside the measurement
     window counts, whenever its request was sent.  Gating on the send
     time too (as [completed], which keys the latency histogram and the
     trace bundles, must) would silently drop the last ~latency of the
     window and bias the rate low by latency/duration. *)
  let finished = ref 0 in
  let container_switches = ref 0 in
  let process_switches = ref 0 in
  let switch_overhead = ref 0. in
  let busy = ref 0. in
  let measure_start = config.warmup_ns in
  let measure_end = config.warmup_ns +. config.duration_ns in
  let n_stages = Array.length config.stage_cpu_ns in
  (* Bundle lane for tail attribution: when [request_mech] is set, each
     measured request's spans (request + synthetic children) are
     re-based onto a sequential region past the end of the simulated
     timeline, packed end to end.  Concurrent requests overlap in
     simulated time, and overlapping windows cannot be partitioned
     exactly by a containment sweep; the sequential lane makes
     [Profile.attribute] exact.  Durations are untouched. *)
  let synth_cursor = ref (measure_end +. config.client_rtt_ns +. 1e9) in

  let n_entities =
    entities config.mode ~containers:config.containers ~stages:n_stages
  in
  let queued = Bytes.make n_entities '\000' in
  let held = Bytes.make n_entities '\000' in
  let work_head : burst option array = Array.make n_entities None in
  let work_tail : burst option array = Array.make n_entities None in
  let work_empty e = match work_head.(e) with None -> true | Some _ -> false in
  let work_push e (b : burst) =
    b.qnext <- None;
    (match work_tail.(e) with
    | Some t -> t.qnext <- Some b
    | None -> work_head.(e) <- Some b);
    work_tail.(e) <- Some b
  in
  let work_pop e =
    match work_head.(e) with
    | None -> None
    | Some b ->
        work_head.(e) <- b.qnext;
        (match b.qnext with None -> work_tail.(e) <- None | Some _ -> ());
        b.qnext <- None;
        Some b
  in
  let entity_of_burst (b : burst) =
    match config.mode with
    | Hierarchical -> b.container
    | Flat -> (b.container * n_stages) + b.stage
  in
  let ready = Ring.make n_entities in
  (* Telemetry: the scheduler modelled here belongs to a different
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
    if Xc_sim.Metrics.on () then
      Xc_sim.Metrics.gauge_set ~cat:sched_cat ~name:"ready-queue"
        (float_of_int (Ring.length ready))
  in
  (* top(1)'s "Tasks:" line — how many schedulable entities this
     scheduler owns (vCPUs under the hypervisor, processes under the
     host kernel). *)
  if Xc_sim.Metrics.on () then
    Xc_sim.Metrics.gauge_set ~cat:sched_cat
      ~name:(match config.mode with Hierarchical -> "vcpus" | Flat -> "tasks")
      (float_of_int n_entities);
  let cores =
    Array.init config.pcpus (fun _ ->
        {
          last_container = -1;
          last_process = -1;
          cur_entity = -1;
          slice_used = 0.;
          idle = true;
        })
  in
  let idle_cores = Ring.make config.pcpus in
  Array.iteri (fun i _ -> Ring.add idle_cores i) cores;

  (* Forward declaration of the dispatch loop. *)
  let rec wake_core engine =
    match Ring.take_opt idle_cores with
    | Some i when cores.(i).idle ->
        cores.(i).idle <- false;
        Xc_sim.Metrics.gauge_add ~cat:"cpu" ~name:"cores-busy" 1.;
        dispatch i engine
    | Some _ -> wake_core engine
    | None -> ()

  and enqueue_burst engine (b : burst) =
    let e = entity_of_burst b in
    note_policy_enqueue b;
    work_push e b;
    if Bytes.get queued e = '\000' && Bytes.get held e = '\000' then begin
      Bytes.set queued e '\001';
      Ring.add ready e;
      note_ready ();
      wake_core engine
    end

  and finish_request engine (b : burst) =
    (* Cancel-on-first-complete: the first clone through all stages
       wins; siblings are torn down at their next scheduling point and
       their remaining stages refunded (never enqueued again).  The
       core time losers already burnt is charged to the set as hedge
       overhead. *)
    (match (b.set, lb_state) with
    | Some cs, Some (pol, _) when not cs.won ->
        cs.won <- true;
        Xc_lb.Policy.complete pol b.container;
        List.iter
          (fun (sib : burst) ->
            if sib != b then begin
              sib.cancelled <- true;
              cs.hedge_ns <- cs.hedge_ns +. sib.done_ns;
              Xc_lb.Policy.complete pol sib.container;
              if Xc_sim.Metrics.on () then
                Xc_sim.Metrics.counter_incr ~cat:"lb" ~name:"clones-cancelled"
            end)
          cs.bursts
    | _ -> ());
    let client = match b.set with Some cs -> cs.origin | None -> b.container in
    let now = Engine.now engine in
    let response_at = now +. (config.client_rtt_ns /. 2.) in
    if Xc_sim.Metrics.on () then begin
      Xc_sim.Metrics.gauge_add ~cat:"net" ~name:"in-flight" 1.;
      Xc_sim.Metrics.counter_incr ~cat:"net" ~name:"messages"
    end;
    Engine.schedule engine response_at (fun engine ->
        let now' = Engine.now engine in
        if Xc_sim.Metrics.on () then begin
          Xc_sim.Metrics.gauge_add ~cat:"net" ~name:"in-flight" (-1.);
          Xc_sim.Metrics.gauge_add ~cat:"platform" ~name:"in-flight" (-1.)
        end;
        if now' >= measure_start && now' <= measure_end then incr finished;
        if b.sent_at >= measure_start && now' <= measure_end then begin
          incr completed;
          Histogram.add latencies (now' -. b.sent_at);
          if Xc_sim.Metrics.on () then begin
            Xc_sim.Metrics.counter_incr ~cat:"platform" ~name:"requests";
            Xc_sim.Metrics.hist_observe ~cat:"platform" ~name:"latency-ns"
              (now' -. b.sent_at)
          end;
          if Xc_trace.Trace.enabled () then begin
            let bundle = Array.length config.request_mech > 0 in
            (* [shift] re-bases the whole bundle onto the sequential
               lane; 0 keeps the legacy real-time request span when no
               mechanism decomposition was configured. *)
            let shift =
              if bundle then begin
                let c = !synth_cursor in
                synth_cursor := c +. (now' -. b.sent_at);
                c -. b.sent_at
              end
              else 0.
            in
            Xc_trace.Trace.span_at ~at:(b.sent_at +. shift)
              ~value:(float_of_int !completed) ~cat:"request" ~name:"cluster"
              (now' -. b.sent_at);
            (* Synthetic children nested inside the request window: the
               two half-RTT hops, each stage's mechanism decomposition
               laid out serially and clamped to the window, and one
               exact [ctx-switch] row carrying the scheduler switch
               time this request was actually charged (accumulated
               per-burst in [dispatch]).  Scheduling/queueing delay
               stays request self-time. *)
            if bundle then begin
              let half = config.client_rtt_ns /. 2. in
              if half > 0. then
                Xc_trace.Trace.span_at ~at:(b.sent_at +. shift) ~cat:"net.hop"
                  ~name:"client->server" half;
              let cursor = ref (b.sent_at +. shift +. half) in
              let budget = now' +. shift -. half in
              let emit cat mname ns =
                let d = Float.min ns (budget -. !cursor) in
                if d > 0. then begin
                  Xc_trace.Trace.span_at ~at:!cursor ~cat ~name:mname d;
                  cursor := !cursor +. d
                end
              in
              Array.iter
                (List.iter (fun (cat, mname, ns) -> emit cat mname ns))
                config.request_mech;
              if b.switch_ns > 0. then emit "ctx-switch" "sched" b.switch_ns;
              (* Hedge overhead: core time the losing clones burnt
                 before cancellation, clamped like every other row (it
                 accrues on other backends in parallel, so it can
                 exceed the response window).  The row name carries the
                 clone fan-out; a floor of 1ns keeps the fan-out
                 visible even when the siblings never started. *)
              (match b.set with
              | Some cs when cs.fanout > 1 ->
                  emit "lb.hedge"
                    (Printf.sprintf "clone-x%d" cs.fanout)
                    (Float.max cs.hedge_ns 1.)
              | _ -> ());
              if half > 0. then
                Xc_trace.Trace.span_at ~at:(now' +. shift -. half) ~cat:"net.hop"
                  ~name:"server->client" half
            end
          end
        end;
        (* Closed loop: the client immediately sends the next request. *)
        if now' < measure_end then send_request engine client)

  and send_request engine container =
    let now = Engine.now engine in
    let arrive_at = now +. (config.client_rtt_ns /. 2.) in
    let fresh_burst ~target ~set =
      {
        container = target;
        remaining = config.stage_cpu_ns.(0);
        stage = 0;
        sent_at = now;
        switch_ns = 0.;
        cancelled = false;
        done_ns = 0.;
        set;
        qnext = None;
      }
    in
    if Xc_sim.Metrics.on () then begin
      Xc_sim.Metrics.gauge_add ~cat:"platform" ~name:"in-flight" 1.;
      Xc_sim.Metrics.gauge_add ~cat:"net" ~name:"in-flight" 1.;
      Xc_sim.Metrics.counter_incr ~cat:"net" ~name:"messages"
    end;
    match lb_state with
    | None ->
        let b = fresh_burst ~target:container ~set:None in
        Engine.schedule engine arrive_at (fun engine ->
            Xc_sim.Metrics.gauge_add ~cat:"net" ~name:"in-flight" (-1.);
            enqueue_burst engine b)
    | Some (pol, clones) ->
        (* The balancer picks on arrival, observing the in-flight and
           queue state of that instant, and fans the request out to
           [clones] distinct backends. *)
        Engine.schedule engine arrive_at (fun engine ->
            Xc_sim.Metrics.gauge_add ~cat:"net" ~name:"in-flight" (-1.);
            let targets = Xc_lb.Policy.pick_set pol ~clones in
            let cs =
              {
                origin = container;
                fanout = clones;
                won = false;
                bursts = [];
                hedge_ns = 0.;
              }
            in
            cs.bursts <-
              List.map (fun target -> fresh_burst ~target ~set:(Some cs)) targets;
            if Xc_sim.Metrics.on () then begin
              Xc_sim.Metrics.counter_incr ~cat:"lb" ~name:"requests";
              Xc_sim.Metrics.counter_add ~cat:"lb" ~name:"clones-spawned"
                (float_of_int clones)
            end;
            List.iter
              (fun (b : burst) ->
                Xc_lb.Policy.admit pol b.container;
                enqueue_burst engine b)
              cs.bursts)

  and advance_stage engine (b : burst) =
    b.stage <- b.stage + 1;
    if b.stage >= n_stages then finish_request engine b
    else begin
      b.remaining <- config.stage_cpu_ns.(b.stage);
      enqueue_burst engine b
    end

  (* Pick the next entity for a core, honouring slice budgets. *)
  and pick_entity core =
    let continue_current () =
      if core.cur_entity >= 0 then begin
        let e = core.cur_entity in
        if (not (work_empty e)) && core.slice_used < timeslice_ns then Some e
        else None
      end
      else None
    in
    match continue_current () with
    | Some _ as res -> res
    | None -> begin
        (* Release the current entity. *)
        (if core.cur_entity >= 0 then begin
           let e = core.cur_entity in
           Bytes.set held e '\000';
           if (not (work_empty e)) && Bytes.get queued e = '\000' then begin
             Bytes.set queued e '\001';
             Ring.add ready e;
             note_ready ()
           end;
           core.cur_entity <- -1
         end);
        match Ring.take_opt ready with
        | Some e ->
            Bytes.set queued e '\000';
            Bytes.set held e '\001';
            core.cur_entity <- e;
            core.slice_used <- 0.;
            note_ready ();
            Some e
        | None -> None
      end

  and dispatch core_idx engine =
    let core = cores.(core_idx) in
    match pick_entity core with
    | None ->
        core.idle <- true;
        core.cur_entity <- -1;
        Xc_sim.Metrics.gauge_add ~cat:"cpu" ~name:"cores-busy" (-1.);
        Ring.add idle_cores core_idx
    | Some e -> begin
        match work_pop e with
        | None ->
            (* Raced empty; retry. *)
            dispatch core_idx engine
        | Some b when b.cancelled ->
            (* A sibling clone finished first: tear the loser down at
               its scheduling point, for free — the refund of its
               remaining work. *)
            note_policy_dequeue b;
            dispatch core_idx engine
        | Some b ->
            note_policy_dequeue b;
            let now = Engine.now engine in
            (* Switch-cost accounting. *)
            let switch_kind = ref "" in
            let switch_cost =
              if core.last_container <> b.container then begin
                incr container_switches;
                Xc_sim.Metrics.counter_incr ~cat:cswitch_cat ~name:cswitch_name;
                switch_kind := "container";
                (* The bookkeeping term scales with the task population
                   this scheduler manages (CFS statistics, cgroup walks,
                   load-balancer scans touch per-task state): all 4N
                   processes under Flat, N vCPUs under Hierarchical.
                   The instantaneous queue length [ready + held] is much
                   smaller, but the cold state is still resident. *)
                config.container_switch_ns ~runnable:n_entities
              end
              else if core.last_process <> b.stage then begin
                incr process_switches;
                Xc_sim.Metrics.counter_incr ~cat:"os" ~name:"ctx-switches";
                switch_kind := "process";
                config.process_switch_ns
              end
              else 0.
            in
            b.switch_ns <- b.switch_ns +. switch_cost;
            (* Per-dispatch switch spans only when no per-request bundle
               is configured: the bundle carries the same time as one
               exact per-request [ctx-switch] row, and emitting both
               would double-count switching in summaries. *)
            if
              switch_cost > 0.
              && Array.length config.request_mech = 0
              && Xc_trace.Trace.enabled ()
            then
              Xc_trace.Trace.span_at ~at:now ~cat:"ctx-switch" ~name:!switch_kind
                switch_cost;
            core.last_container <- b.container;
            core.last_process <- b.stage;
            let slice =
              Float.min b.remaining (timeslice_ns -. core.slice_used)
            in
            let slice = Float.max slice 1_000. in
            switch_overhead := !switch_overhead +. switch_cost;
            busy := !busy +. switch_cost +. slice;
            core.slice_used <- core.slice_used +. slice;
            if Xc_sim.Metrics.on () then begin
              Xc_sim.Metrics.counter_incr ~cat:sched_cat ~name:slice_name;
              if now > 0. then
                Xc_sim.Metrics.gauge_set ~cat:"platform" ~name:"vcpu-utilization"
                  (!busy /. (float_of_int config.pcpus *. now))
            end;
            Engine.schedule engine
              (now +. switch_cost +. slice)
              (fun engine ->
                b.done_ns <- b.done_ns +. switch_cost +. slice;
                b.remaining <- b.remaining -. slice;
                if b.cancelled then begin
                  (* Cancelled mid-slice: the slice still burnt core
                     time, so it counts as hedge overhead; the rest of
                     the clone is dropped. *)
                  (match b.set with
                  | Some cs -> cs.hedge_ns <- cs.hedge_ns +. switch_cost +. slice
                  | None -> ())
                end
                else if b.remaining > 1. then begin
                  note_policy_enqueue b;
                  work_push e b
                end
                else advance_stage engine b;
                dispatch core_idx engine)
      end
  in

  (* Start the closed-loop clients, staggered. *)
  for c = 0 to config.containers - 1 do
    for _ = 1 to config.connections_per_container do
      Engine.schedule engine (Prng.float rng 1e6) (fun engine ->
          send_request engine c)
    done
  done;
  Engine.run ~until:(measure_end +. config.client_rtt_ns) engine;
  {
    throughput_rps = float_of_int !finished /. (config.duration_ns /. 1e9);
    mean_latency_ns = Histogram.mean latencies;
    p99_latency_ns = Histogram.percentile latencies 99.;
    container_switches = !container_switches;
    process_switches = !process_switches;
    switch_overhead_ns = !switch_overhead;
    busy_fraction =
      !busy /. (float_of_int config.pcpus *. (measure_end +. config.client_rtt_ns));
  }
