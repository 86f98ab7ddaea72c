(** Pluggable backend-selection policies.

    The load-balancer model in {!Xc_net.Load_balancer} prices the
    balancer's {e data path} (HAProxy vs IPVS); this module owns the
    orthogonal question of {e which backend} a request goes to.  A
    policy is a small mutable state machine: the driver feeds it
    per-backend load observations ({!admit}/{!complete} for in-flight
    requests, {!enqueue}/{!dequeue} for queued work) and asks it to
    {!pick} a backend — or a whole {e clone set} ({!pick_set}) when
    request hedging is on.

    All randomness (power-of-two-choices probing) comes from a
    {!Xc_sim.Prng} stream seeded at {!create} time, so runs are
    deterministic and schedule-independent: a policy created from the
    experiment seed picks the same backends at any [--jobs]. *)

type kind =
  | Round_robin  (** cyclic cursor; clone sets are consecutive groups *)
  | Least_loaded  (** fewest in-flight requests, ties to the lowest index *)
  | Power_of_two
      (** probe two distinct random backends, keep the less loaded —
          never more than two probes per {!pick} ({!probes} audits this) *)
  | Jsq  (** join-shortest-queue: fewest {e queued} (not yet running) *)

val all_kinds : kind list
val kind_to_string : kind -> string

val kind_of_string : string -> (kind, string) result
(** Accepts the {!kind_to_string} spellings ([round-robin],
    [least-loaded], [po2c], [jsq]); the error lists them. *)

type hedge = { kind : kind; clones : int }
(** A driver-facing hedging selection: route with [kind], cloning each
    request to [clones] distinct backends ([1] = plain routing). *)

type t

val create : ?seed:int -> backends:int -> kind -> t
(** Fresh policy state over [backends] (> 0, else [Invalid_argument]).
    [seed] (default 0) feeds the probe PRNG — pass the experiment seed
    so traced runs stay deterministic at any [--jobs]. *)

val kind : t -> kind

val pick : t -> int
(** Choose one backend in [\[0, backends)]. *)

val pick_set : t -> clones:int -> int list
(** Choose [clones] distinct backends for a clone set
    (1 <= clones <= backends, else [Invalid_argument]).  Round-robin
    returns the next [clones] consecutive indices — when [clones]
    divides [backends] the sets tile into fixed sub-clusters, the
    structure the {!Oracle} closed form assumes.  Least-loaded/JSQ
    return the [clones] least-loaded backends; power-of-two-choices
    probes two and pads with the winner's cyclic successors, still
    charging only two probes. *)

val admit : t -> int -> unit
(** A request was dispatched to this backend: in-flight count +1. *)

val complete : t -> int -> unit
(** The request finished (or its clone was cancelled): in-flight -1. *)

val enqueue : t -> int -> unit
(** Work became queued (not yet running) at this backend: queued +1. *)

val dequeue : t -> int -> unit

val picks : t -> int
(** Total {!pick}/{!pick_set} calls so far. *)

val probes : t -> int
(** Total load probes performed.  Power-of-two-choices performs at most
    2 per pick; the scanning policies charge one per backend. *)
