(** Deterministic fan-out of independent work over OCaml 5 domains.

    A task ({!Shard}) declares independent sub-units (each
    [(platform × app)] cell of a sweep, each point of a grid) plus a
    merge over the index-ordered shard results; a whole experiment is
    the one-shard case ({!Shard.thunk}).  {!run_sharded} runs every
    shard of every task on one pool: each worker claims the next
    unclaimed shard from one shared counter, so one long experiment
    never serializes the rest behind a single worker.

    Determinism at every job count is structural, not scheduled: each
    shard writes an indexed result slot, and the merge phase walks
    tasks in submission order and shards in index order on the calling
    domain.  The schedule can only change {e when} a shard runs, never
    what anything computes or the order anything merges.

    The pool returns results and captures nothing: a shard's trace
    events and telemetry stay in the recorder of the domain that ran it.
    A fan-out that must record runs its cells through
    [Xc_suite.Run], whose cells capture themselves and whose merge joins
    the captures in cell order.

    Shards must be independent: they may not share mutable state (each
    experiment builds its own engine, PRNG and platform, so the
    simulator's modules satisfy this by construction).

    The pool caps its worker domains at {!recommended_jobs} — spawning
    more domains than cores makes every minor GC a cross-domain rendezvous
    and was measured 35% {e slower} on a single-core host.  [~oversubscribe]
    lifts the cap for scheduler tests that must exercise real domains
    regardless of the host. *)

val jobs_of_string : string -> (int, string) result
(** Parse a worker-domain count: a positive integer, or [0] meaning
    "auto" — resolved to {!recommended_jobs} immediately.  Negatives
    and non-numeric input return [Error] with a one-line message —
    CLIs print it and exit nonzero. *)

val jobs_from_env : unit -> (int, string) result
(** [XC_JOBS] via {!jobs_of_string} (so [XC_JOBS=0] is auto too);
    [Ok 1] when unset.  Entry points should call this and fail loudly
    on [Error] rather than silently falling back. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: what the host can usefully
    run in parallel. *)

(** A task as the pool sees it: an array of independent shard thunks
    plus a merge over their index-ordered results. *)
module Shard : sig
  type 'a t

  val thunk : (unit -> 'a) -> 'a t
  (** One unsplittable unit of work. *)

  val make : shards:(unit -> 'b) array -> merge:('b array -> 'a) -> 'a t
  (** [make ~shards ~merge]: [merge] receives the shard results in
      shard-index order, whatever workers ran them, and runs on the
      calling domain during the merge phase. *)

  val count : 'a t -> int
end

val run_sharded : jobs:int -> ?oversubscribe:bool -> 'a Shard.t list -> 'a list
(** Run every shard of every task and return one merged result per
    task, in submission order.

    [jobs] bounds the worker pool; the pool also never exceeds the
    shard count or — unless [oversubscribe] (default false) —
    {!recommended_jobs}.  One worker runs the shards in the calling
    domain as a nested [List.map], in (task, shard) order, with
    [List.map] exception semantics (a raise propagates immediately).

    Otherwise the calling domain and [workers - 1] spawned domains each
    claim shards in global (task, shard) index order from one atomic
    counter until none is left.  Each shard's outcome lands in its own
    slot, so the merge phase is scheduling-independent.  If a shard
    raises, the pool keeps running (no cancellation); after every
    shard ran, the exception of the lowest-indexed failed shard of the
    {e first} failed task re-raises.

    Nothing is captured: with tracing or telemetry on, a shard records
    into the recorder of whichever domain ran it.  Under one worker
    that is the caller's own recorder, in shard order; under more, it
    is scattered across domains.  A fan-out that can run while either
    recorder is on therefore captures each shard itself
    ([Xc_suite.Run] cells) or runs on one worker inside its caller's
    capture. *)
