module Prng = Xc_sim.Prng
module Histogram = Xc_sim.Histogram

type spawn_path = Docker_spawn | Xc_cold_xl | Xc_cold_lightvm | Xc_clone

let spawn_path_name = function
  | Docker_spawn -> "Docker spawn"
  | Xc_cold_xl -> "X-Container (xl toolstack)"
  | Xc_cold_lightvm -> "X-Container (LightVM)"
  | Xc_clone -> "X-Container (clone)"

let all_paths = [ Docker_spawn; Xc_cold_xl; Xc_cold_lightvm; Xc_clone ]

(* Spawn times mirror the Boot/Cloning models (kept numerically inline
   to avoid a dependency cycle with xcontainers; pinned by tests). *)
let spawn_ns = function
  | Docker_spawn -> 400e6
  | Xc_cold_xl -> 3000e6
  | Xc_cold_lightvm -> 184e6
  | Xc_clone -> 5.8e6

type config = {
  arrival_rate_rps : float;
  service_ns : float;
  keepalive_ns : float;
  duration_ns : float;
  seed : int;
}

let default_config ~rate_rps =
  {
    arrival_rate_rps = rate_rps;
    service_ns = 50e6;
    keepalive_ns = 30e9;
    duration_ns = 600e9;
    seed = 23;
  }

type result = {
  invocations : int;
  cold_starts : int;
  cold_fraction : float;
  p50_latency_ns : float;
  p99_latency_ns : float;
}

(* Warm instances as a multiset of expiry/free times: an instance is
   reusable if it is idle now and not expired. *)
type instance = { mutable free_at : float; mutable expires_at : float }

let run path config =
  let rate = config.arrival_rate_rps in
  if not (Float.is_finite rate && rate > 0.) then invalid_arg "Coldstart.run: rate";
  let rng = Prng.create config.seed in
  let latencies = Histogram.create () in
  let pool : instance list ref = ref [] in
  let invocations = ref 0 in
  let cold = ref 0 in
  let spawn = spawn_ns path in
  let mean_gap = 1e9 /. rate in
  let find_warm now =
    (* Drop expired instances, then pick an idle one. *)
    pool := List.filter (fun i -> i.expires_at > now) !pool;
    List.find_opt (fun i -> i.free_at <= now) !pool
  in
  let invoke now =
    incr invocations;
    let start_delay, instance =
      match find_warm now with
      | Some i -> (0., i)
      | None ->
          incr cold;
          let i = { free_at = now; expires_at = now } in
          pool := i :: !pool;
          (spawn, i)
    in
    let finish = now +. start_delay +. config.service_ns in
    instance.free_at <- finish;
    instance.expires_at <- finish +. config.keepalive_ns;
    Histogram.add latencies (start_delay +. config.service_ns)
  in
  (* The Poisson arrival stream: each arrival inside the window invokes
     and draws the gap to the next. *)
  let now = ref 0. in
  while !now < config.duration_ns do
    invoke !now;
    now := !now +. Prng.exponential rng ~mean:mean_gap
  done;
  (* Every arrival is one event, the last one too: it found the window
     closed. *)
  Xc_sim.Engine.add_domain_events (!invocations + 1);
  {
    invocations = !invocations;
    cold_starts = !cold;
    cold_fraction =
      (if !invocations = 0 then 0.
       else float_of_int !cold /. float_of_int !invocations);
    p50_latency_ns = Histogram.percentile latencies 50.;
    p99_latency_ns = Histogram.percentile latencies 99.;
  }
