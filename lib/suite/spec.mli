(** A declarative experiment specification (gem5-style).

    One experiment = (platform x workload x load shape x seed x
    fidelity tier x capture options), a plain record with a strict
    key=value text form: every field parses back to exactly the value
    it printed ({!print_fields} emits only non-default fields, and
    {!set_field} accepts exactly what {!print_fields} writes).  The
    generic {!Driver} interprets a spec into the existing
    [Closed_loop]/[Open_loop]/[Cluster_sim] engines. *)

module Config = Xc_platforms.Config

type shape = Closed | Open | Cluster

type fidelity = Exact | Fluid | Mixed of int
    (** [Mixed n]: fluid bulk plus a seeded exact slice of 1 in [n]
        containers — only meaningful for [Cluster] shapes. *)

type load = {
  shape : shape;
  connections : int;
      (** closed-loop clients, or connections per container (cluster) *)
  rate : float;  (** open-loop arrival rate as a fraction of capacity *)
  nodes : int;  (** cluster only: independent nodes, seeded [seed + i] *)
  containers : int;  (** cluster only: containers per node *)
  duration_ms : float;  (** simulated measurement window *)
  warmup_ms : float;
}

type capture = {
  trace : bool;  (** record mechanism spans during the run *)
  sample : int;  (** trace sampling stride; 0 = unsampled *)
  timeseries : bool;  (** sample the telemetry registry on the sim clock *)
  interval_us : int;  (** snapshot cadence in sim-us; 0 = default (50) *)
  tails : bool;  (** keep per-request bundles for p99 tail attribution *)
}

type t = {
  name : string;
  platform : Config.t;
  workload : string;  (** a {!Workload.names} member *)
  load : load;
  seed : int;
  fidelity : fidelity;
  capture : capture;
  whatif : (string * float) list;
      (** [whatif.MECH = SCALE] virtual-speedup axes, in file order:
          the named mechanism's priced cost is scaled before the run
          ({!Xc_obs.Whatif}).  Validated against the mechanism
          vocabulary and scale range at parse time; duplicate
          mechanisms are an error.  Specs with what-ifs use the
          recipe-decomposed service pricing on closed/open shapes, so
          compare them against a [whatif.MECH = 1] cell of the same
          spec, not an un-scaled spec. *)
  params : (string * string) list;
      (** free-form [param.KEY = value] extension fields, in file order.
          The generic driver reads none of them, so [xc suite run]
          refuses a suite that sets any. *)
}

val default : t
(** X-Container on Amazon (patched), nginx workload,
    closed loop at 32 connections for 2000 ms (200 ms warmup), seed 42,
    exact fidelity, no capture — the [Closed_loop.default_config]
    numbers. *)

val duration_ns : t -> float
val warmup_ns : t -> float

val shape_to_string : shape -> string
val fidelity_to_string : fidelity -> string
val runtime_to_string : Config.runtime -> string
val runtime_of_string : string -> (Config.runtime, string) result
val cloud_to_string : Config.cloud -> string
val cloud_of_string : string -> (Config.cloud, string) result

val field_names : string list
(** Every typed field key, in canonical print order (excludes
    [param.*]). *)

val set_field : t -> string -> string -> (t, string) result
(** [set_field t key value] — the single write path shared by the file
    parser and suite cross-products.  Unknown keys and malformed
    values produce a named-field error ([field KEY: ...]); [param.K]
    keys append (duplicate [param.K] is an error). *)

val fields : t -> (string * string) list
(** All fields (typed then [param.*]) as canonical key=value strings;
    [set_field] on each pair rebuilds an equal record. *)

val print_fields : t -> (string * string) list
(** Only the fields that differ from {!default} (params always);
    applying them to [{ default with name }] rebuilds [t] — the
    round-trip the QCheck suite pins. *)

val param : t -> string -> string option
val param_int : t -> string -> default:int -> (int, string) result

val name_ok : string -> bool
(** The experiment/suite name charset: nonempty [A-Za-z0-9._/=+:-]. *)

val validate : t -> (unit, string) result
(** Range and well-formedness checks with named-field messages
    ([experiment NAME: field KEY: ...]): name charset, known
    workload, connections/nodes/containers/sample-rate bounds, rate in
    (0, 10], positive duration, warmup < duration, and [tails] only on
    shapes that emit request spans (not open, not the fluid cluster
    tier). *)
