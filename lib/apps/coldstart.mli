(** Serverless cold starts.

    Section 5.5 motivates X-Containers with serverless compute:
    "short-running, user-driven online services with intermittent
    behavior".  Intermittent means instances go cold, and invocation
    latency is dominated by how fast the platform can conjure one.  This
    experiment combines the boot/cloning models with a Poisson
    invocation stream and a keep-alive warm pool. *)

type spawn_path =
  | Docker_spawn  (** containerd + namespaces, ~400 ms *)
  | Xc_cold_xl  (** X-Container, stock xl toolstack, ~3 s *)
  | Xc_cold_lightvm  (** X-Container, LightVM toolstack, ~184 ms *)
  | Xc_clone  (** X-Container forked from a warm snapshot, ~6 ms *)

val spawn_path_name : spawn_path -> string
val all_paths : spawn_path list
val spawn_ns : spawn_path -> float

type config = {
  arrival_rate_rps : float;  (** invocations per second *)
  service_ns : float;  (** function execution time *)
  keepalive_ns : float;  (** how long an idle instance stays warm *)
  duration_ns : float;
  seed : int;
}

val default_config : rate_rps:float -> config
(** 50 ms of function work, 30 s keep-alive, 10 min simulated. *)

type result = {
  invocations : int;
  cold_starts : int;
  cold_fraction : float;
  p50_latency_ns : float;
  p99_latency_ns : float;
}

val run : spawn_path -> config -> result
(** A Poisson stream of invocations over [duration_ns], each served by
    an idle warm instance or a fresh spawn along [spawn_path].  Raises
    [Invalid_argument "Coldstart.run: rate"] unless [arrival_rate_rps]
    is finite and [> 0]. *)
