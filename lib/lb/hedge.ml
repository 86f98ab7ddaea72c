module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram
module Metrics = Xc_sim.Metrics

type dispatch = Subcluster | Policy of Policy.kind

type config = {
  backends : int;
  clones : int;
  dispatch : dispatch;
  arrival_rate_per_ns : float;
  service_mean_ns : float;
  duration_ns : float;
  warmup_ns : float;
  seed : int;
}

let rate_for ~backends ~clones ~service_mean_ns ~utilization =
  utilization *. float_of_int backends
  /. (float_of_int clones *. service_mean_ns)

let default_config =
  let backends = 6 and clones = 1 and service_mean_ns = 200_000. in
  {
    backends;
    clones;
    dispatch = Subcluster;
    arrival_rate_per_ns =
      rate_for ~backends ~clones ~service_mean_ns ~utilization:0.6;
    service_mean_ns;
    duration_ns = 3e8;
    warmup_ns = 3e7;
    seed = 17;
  }

let config_for_utilization ?(backends = 6) ?(clones = 1) ?(dispatch = Subcluster)
    ?(seed = 17) ?(duration_ns = 3e8) ~utilization () =
  if utilization <= 0. || utilization >= 1. then
    invalid_arg "Xc_lb.Hedge: utilization must be in (0, 1)";
  let service_mean_ns = default_config.service_mean_ns in
  {
    backends;
    clones;
    dispatch;
    arrival_rate_per_ns = rate_for ~backends ~clones ~service_mean_ns ~utilization;
    service_mean_ns;
    duration_ns;
    warmup_ns = default_config.warmup_ns;
    seed;
  }

type result = {
  completed : int;
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  winner_service_ns : float;
  cancelled_work_ns : float;
  refunded_ns : float;
  busy_ns : float;
  clones_spawned : int;
  clones_cancelled : int;
}

(* One resident clone of a request: same requirement [set.x] as its
   siblings (synchronized service), progressing at the backend's PS
   share. *)
type clone = { backend : int; mutable work : float; set : set }

and set = { x : float; sent_at : float; measured : bool }

let run config =
  let n = config.backends and d = config.clones in
  if n <= 0 then invalid_arg "Xc_lb.Hedge.run: no backends";
  if d < 1 || d > n then
    invalid_arg "Xc_lb.Hedge.run: clones must be in [1, backends]";
  (match config.dispatch with
  | Subcluster when n mod d <> 0 ->
      invalid_arg "Xc_lb.Hedge.run: Subcluster needs clones to divide backends"
  | _ -> ());
  let rho =
    float_of_int d *. config.arrival_rate_per_ns *. config.service_mean_ns
    /. float_of_int n
  in
  if rho >= 1. then invalid_arg "Xc_lb.Hedge.run: unstable (utilization >= 1)";
  (* Independent streams per random source, all derived from the
     experiment seed — clone-choice randomness must not come from any
     global state or runs stop being schedule-independent. *)
  let root = Prng.create config.seed in
  let arr_rng = Prng.split root in
  let svc_rng = Prng.split root in
  let disp_rng = Prng.split root in
  let policy =
    match config.dispatch with
    | Subcluster -> None
    | Policy kind ->
        Some (Policy.create ~seed:(config.seed lxor 0x5bd1e995) ~backends:n kind)
  in
  let resident = Array.make n ([] : clone list) in
  let pop = Array.make n 0 in
  let now = ref 0. in
  let busy = ref 0. in
  let latencies = Histogram.create () in
  let completed = ref 0 in
  let winner_service = ref 0. in
  let cancelled_work = ref 0. in
  let refunded = ref 0. in
  let clones_spawned = ref 0 in
  let clones_cancelled = ref 0 in
  let t_end = config.warmup_ns +. config.duration_ns in
  let interarrival_mean = 1. /. config.arrival_rate_per_ns in
  let next_arrival = ref (Prng.exponential arr_rng ~mean:interarrival_mean) in

  let advance t =
    let dt = t -. !now in
    if dt > 0. then
      for b = 0 to n - 1 do
        let p = pop.(b) in
        if p > 0 then begin
          busy := !busy +. dt;
          let share = dt /. float_of_int p in
          List.iter (fun c -> c.work <- c.work +. share) resident.(b)
        end
      done;
    now := t
  in
  (* Earliest first-clone completion if no further event intervenes:
     clone [c] at backend [b] finishes at [now + (x - work) * pop(b)].
     Strict [<] over the fixed backend scan order makes ties (lockstep
     sub-cluster siblings) resolve to the lowest backend index. *)
  let next_completion () =
    let best_t = ref infinity and best = ref None in
    for b = 0 to n - 1 do
      let p = float_of_int pop.(b) in
      List.iter
        (fun c ->
          let t = !now +. ((c.set.x -. c.work) *. p) in
          if t < !best_t then begin
            best_t := t;
            best := Some c
          end)
        resident.(b)
    done;
    match !best with None -> None | Some c -> Some (!best_t, c)
  in
  let spawn t =
    let x = Prng.exponential svc_rng ~mean:config.service_mean_ns in
    let set = { x; sent_at = t; measured = t >= config.warmup_ns } in
    let targets =
      match (config.dispatch, policy) with
      | Subcluster, _ ->
          let k = Prng.int disp_rng (n / d) in
          List.init d (fun i -> (k * d) + i)
      | Policy _, Some p ->
          let targets = Policy.pick_set p ~clones:d in
          (* A PS server has no separate wait queue — the residents are
             the queue — so feed both load signals: JSQ then observes
             the resident population instead of a constant zero (which
             would degenerate to always-lowest-index). *)
          List.iter
            (fun b ->
              Policy.admit p b;
              Policy.enqueue p b)
            targets;
          targets
      | Policy _, None -> assert false
    in
    List.iter
      (fun b ->
        let c = { backend = b; work = 0.; set } in
        resident.(b) <- resident.(b) @ [ c ];
        pop.(b) <- pop.(b) + 1)
      targets;
    clones_spawned := !clones_spawned + d;
    if Metrics.on () then begin
      Metrics.counter_incr ~cat:"lb" ~name:"requests";
      Metrics.counter_add ~cat:"lb" ~name:"clones-spawned" (float_of_int d)
    end
  in
  let complete t (winner : clone) =
    let set = winner.set in
    if set.measured then begin
      incr completed;
      Histogram.add latencies (t -. set.sent_at)
    end;
    winner_service := !winner_service +. set.x;
    for b = 0 to n - 1 do
      let mine, rest = List.partition (fun c -> c.set == set) resident.(b) in
      if mine <> [] then begin
        resident.(b) <- rest;
        pop.(b) <- pop.(b) - List.length mine;
        List.iter
          (fun c ->
            if c != winner then begin
              let w = Float.min c.work set.x in
              cancelled_work := !cancelled_work +. w;
              refunded := !refunded +. (set.x -. w);
              incr clones_cancelled
            end)
          mine;
        match policy with
        | Some p ->
            List.iter
              (fun c ->
                Policy.complete p c.backend;
                Policy.dequeue p c.backend)
              mine
        | None -> ()
      end
    done;
    if Metrics.on () && d > 1 then
      Metrics.counter_add ~cat:"lb" ~name:"clones-cancelled"
        (float_of_int (d - 1))
  in
  let rec loop () =
    let comp = next_completion () in
    let arr = if !next_arrival <= t_end then Some !next_arrival else None in
    match (arr, comp) with
    | None, None -> ()
    | Some a, c when (match c with None -> true | Some (t, _) -> a <= t) ->
        advance a;
        spawn a;
        next_arrival := a +. Prng.exponential arr_rng ~mean:interarrival_mean;
        loop ()
    | _, Some (t, winner) ->
        advance t;
        complete t winner;
        loop ()
    | Some _, None -> assert false
  in
  loop ();
  {
    completed = !completed;
    mean_ns = Histogram.mean latencies;
    p50_ns = Histogram.percentile latencies 50.;
    p99_ns = Histogram.percentile latencies 99.;
    winner_service_ns = !winner_service;
    cancelled_work_ns = !cancelled_work;
    refunded_ns = !refunded;
    busy_ns = !busy;
    clones_spawned = !clones_spawned;
    clones_cancelled = !clones_cancelled;
  }
