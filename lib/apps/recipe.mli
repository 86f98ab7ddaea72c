(** Request recipes.

    An application is modelled by what one request makes the kernel do: a
    fixed amount of user-space work, a list of system calls, the bytes
    exchanged on the network, and how many times the request hops between
    processes of the same container (e.g. NGINX -> PHP-FPM -> NGINX).
    Given a platform, the recipe prices out to a service time. *)

type t = {
  name : string;
  user_ns : float;  (** pure user-space CPU per request *)
  ops : Xc_os.Kernel.op list;  (** system calls issued per request *)
  request_bytes : int;
  response_bytes : int;
  process_hops : int;  (** intra-container process switches per request *)
  irqs : int;  (** network interrupts triggered per request *)
  abom_coverage : float;  (** Table 1 dynamic coverage for this app *)
}

val make :
  name:string ->
  user_ns:float ->
  ops:Xc_os.Kernel.op list ->
  ?request_bytes:int ->
  ?response_bytes:int ->
  ?process_hops:int ->
  ?irqs:int ->
  ?abom_coverage:float ->
  unit ->
  t

val syscall_count : t -> int

val service_ns : Xc_platforms.Platform.t -> t -> float
(** Full per-request server-side service time on a platform. *)

val cpu_only_ns : Xc_platforms.Platform.t -> t -> float
(** Service time without the network component (for pipelined stages). *)

val server :
  units:int ->
  stddev:float ->
  floor:float ->
  Xc_platforms.Platform.t ->
  t ->
  Xc_platforms.Closed_loop.server
(** A closed-loop server of [units] service units whose per-request
    service time is {!service_ns} (priced once, here) times a normal
    jitter factor of mean 1 and standard deviation [stddev], floored at
    [floor]. *)

val mechanisms :
  Xc_platforms.Platform.t -> t -> (string * string * float) list
(** The {!service_ns} total split by mechanism as [(category, name,
    ns)] rows using the tracer's span categories ([cpu],
    [syscall-entry], [syscall-work], [ctx-switch], [irq], [net.hop]),
    zero rows omitted; rows sum to {!service_ns} (up to rounding).
    Feed to [Closed_loop.config.trace_mechanisms] so per-request tail
    attribution recovers the recipe's decomposition.  Call while
    tracing is disabled — the platform cost queries themselves emit
    spans. *)
