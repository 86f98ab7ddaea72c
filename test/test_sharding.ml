(* Tests for the sharded pool of Xc_sim.Parallel: the Shard
   declarations, the claim counter handing out every shard exactly
   once, and the structural-determinism contract — results, and the
   trace and telemetry that self-capturing shards join in shard order,
   must be byte-identical at any job count and under any schedule. *)

open Xc_sim
module Trace = Xc_trace.Trace

(* ---------------- Shard declarations ---------------- *)

let test_shard_counts () =
  Alcotest.(check int) "thunk is one shard" 1
    (Parallel.Shard.count (Parallel.Shard.thunk (fun () -> ())));
  Alcotest.(check int) "make counts its array" 7
    (Parallel.Shard.count
       (Parallel.Shard.make
          ~shards:(Array.init 7 (fun i () -> i))
          ~merge:(fun _ -> ())))

let test_merge_sees_index_order () =
  (* Whatever workers ran the shards, merge receives the results in
     shard-index order. *)
  let task =
    Parallel.Shard.make
      ~shards:(Array.init 16 (fun i () -> i * i))
      ~merge:Array.to_list
  in
  List.iter
    (fun jobs ->
      match Parallel.run_sharded ~jobs ~oversubscribe:true [ task ] with
      | [ squares ] ->
          Alcotest.(check (list int))
            (Printf.sprintf "jobs %d" jobs)
            (List.init 16 (fun i -> i * i))
            squares
      | _ -> Alcotest.fail "wrong arity")
    [ 1; 2; 4 ]

let test_each_shard_once () =
  (* The claim counter is the one structure shared across domains:
     however the workers race, every shard runs exactly once.  (On a
     1-core host the domains timeslice, which still races the claims.) *)
  let n = 2_000 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let task =
    Parallel.Shard.make
      ~shards:(Array.init n (fun i () -> Atomic.incr runs.(i); i))
      ~merge:Array.to_list
  in
  (match Parallel.run_sharded ~jobs:4 ~oversubscribe:true [ task ] with
  | [ ids ] -> Alcotest.(check (list int)) "index order" (List.init n Fun.id) ids
  | _ -> Alcotest.fail "wrong arity");
  Alcotest.(check (list int))
    "every shard ran exactly once" (List.init n (fun _ -> 1))
    (Array.to_list (Array.map Atomic.get runs))

(* ---------------- structural determinism ---------------- *)

(* A small sharded workload that exercises everything at once: multiple
   tasks, uneven shard counts, trace spans and telemetry counters and
   histograms per shard.  The pool captures nothing, so each shard
   captures its own trace and telemetry and each task joins them in
   shard order through [Trace.concat] and [Metrics.merge_telemetry], as
   the runner's cells do ([Xc_suite.Run]).  Runs are compared against
   the jobs-1 reference byte-for-byte (results, events, telemetry). *)

(* Both recorders on for [f], off again afterwards. *)
let with_recorders f =
  Trace.enable ~capacity:Trace.default_capacity ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Trace.disable ())
    f

let captured f () =
  let (v, trace), telemetry = Metrics.capture (fun () -> Trace.capture f) in
  (v, trace, telemetry)

let join parts =
  ( List.fold_left (fun a (v, _, _) -> a + v) 0 parts,
    Trace.concat (List.map (fun (_, t, _) -> t) parts),
    List.fold_left
      (fun a (_, _, m) -> Metrics.merge_telemetry a m)
      Metrics.empty_telemetry parts )

let workload () =
  List.init 3 (fun t ->
      Parallel.Shard.make
        ~shards:
          (Array.init
             (3 + t)
             (fun i ->
               captured (fun () ->
                   Trace.span
                     ~cat:"shardtest"
                     ~name:(Printf.sprintf "%d.%d" t i)
                     (float_of_int ((10 * t) + i + 1));
                   Metrics.counter_incr ~cat:"shardtest" ~name:"cells";
                   Metrics.hist_observe ~cat:"shardtest" ~name:"size"
                     (float_of_int i);
                   (t * 100) + i)))
        ~merge:(fun parts -> join (Array.to_list parts)))

let run_workload ~jobs =
  with_recorders (fun () ->
      let tasks = Parallel.run_sharded ~jobs ~oversubscribe:true (workload ()) in
      let _, trace, telemetry = join tasks in
      (List.map (fun (v, _, _) -> v) tasks, Trace_rows.captured trace, telemetry))

let test_deterministic_across_jobs () =
  let r0, c0, t0 = run_workload ~jobs:1 in
  List.iter
    (fun jobs ->
      let r, c, t = run_workload ~jobs in
      let label what = Printf.sprintf "%s jobs=%d" what jobs in
      Alcotest.(check (list int)) (label "results") r0 r;
      Alcotest.(check bool) (label "trace") true (c0 = c);
      Alcotest.(check bool) (label "telemetry") true (t0 = t))
    [ 1; 2; 3; 4 ]

let prop_deterministic =
  QCheck.Test.make ~name:"sharded runs are schedule-independent" ~count:25
    QCheck.(int_range 1 4)
    (fun jobs ->
      let r0, c0, t0 = run_workload ~jobs:1 in
      let r, c, t = run_workload ~jobs in
      r0 = r && c0 = c && t0 = t)

(* Exceptions on a real pool: every shard still runs, and the
   lowest-indexed failure of the first failed task re-raises — at any
   schedule. *)
exception Cell of int

let test_exception_ordering_oversubscribed () =
  List.iter
    (fun jobs ->
      match
        Parallel.run_sharded ~jobs ~oversubscribe:true
          [
            Parallel.Shard.make
              ~shards:(Array.init 4 (fun i () -> i))
              ~merge:(fun _ -> ());
            Parallel.Shard.make
              ~shards:
                (Array.init 6 (fun i () ->
                     if i >= 2 then raise (Cell i) else i))
              ~merge:(fun _ -> ());
          ]
      with
      | _ -> Alcotest.fail "expected Cell"
      | exception Cell 2 -> ()
      | exception Cell n ->
          Alcotest.failf "jobs %d: re-raised shard %d, not the lowest" jobs n)
    [ 1; 2; 3; 4 ]

(* ---------------- capture plumbing ---------------- *)

let test_trace_concat_rebases () =
  with_recorders (fun () ->
      (* [n] spans of one stream, sampled at stride 2. *)
      let seg n width =
        snd
          (Trace.capture ~sample:2 (fun () ->
               for _ = 1 to n do
                 Trace.span ~cat:"c" ~name:"x" width
               done))
      in
      let a = seg 1 5. and b = seg 3 7. and c = seg 4 11. in
      let segs = [ a; b; c ] in
      let all = Trace.concat segs in
      let sum f = List.fold_left (fun n x -> n + f x) 0 segs in
      Alcotest.(check int) "all events survive"
        (sum (fun (x : Trace.captured) -> List.length x.events))
        (List.length all.Trace.events);
      (* Segment k's events shift by the cursor-sum of segments 0..k-1,
         so the concatenated timeline is monotone. *)
      let ts = List.map Trace.ts all.Trace.events in
      Alcotest.(check bool) "timeline is monotone" true
        (List.sort compare ts = ts);
      Alcotest.(check (float 1e-9)) "cursor sums" (a.Trace.cursor +. b.Trace.cursor +. c.Trace.cursor)
        all.Trace.cursor;
      (* The stream accounting adds: the merged stream saw and kept
         exactly what the segments did. *)
      let stream (x : Trace.captured) =
        match x.streams with
        | [ s ] -> s
        | l -> Alcotest.failf "expected one stream, got %d" (List.length l)
      in
      Alcotest.(check int) "seen adds" 8 (stream all).Trace.Stream.seen;
      Alcotest.(check int) "seen is the segments' sum"
        (sum (fun x -> (stream x).Trace.Stream.seen))
        (stream all).Trace.Stream.seen;
      Alcotest.(check int) "kept is the segments' sum"
        (sum (fun x -> (stream x).Trace.Stream.kept))
        (stream all).Trace.Stream.kept;
      (* Associativity: one concat equals concat of concats. *)
      Alcotest.(check bool) "associative" true
        (Trace_rows.captured (Trace.concat [ a; b; c ])
        = Trace_rows.captured (Trace.concat [ Trace.concat [ a; b ]; c ])))

let test_merge_telemetry () =
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Metrics.disable ())
    (fun () ->
      let cell k v =
        snd
          (Metrics.capture (fun () ->
               Metrics.counter_add ~cat:"m" ~name:"n" v;
               Metrics.gauge_set ~cat:"m" ~name:"g" v;
               Metrics.hist_observe ~cat:"m" ~name:"h" (float_of_int k)))
      in
      let a = cell 1 2. and b = cell 2 3. in
      let m = Metrics.merge_telemetry a b in
      Alcotest.(check (float 1e-9)) "counters add" 5.
        (List.assoc "m/n" m.Metrics.counters);
      Alcotest.(check (float 1e-9)) "gauges last-writer-wins" 3.
        (List.assoc "m/g" m.Metrics.gauges);
      (* Merging with empty is the identity on totals. *)
      let with_empty = Metrics.merge_telemetry Metrics.empty_telemetry a in
      Alcotest.(check bool) "empty is left identity" true (with_empty = a);
      (* Associativity: the shard fold's bracketing cannot matter. *)
      let c = cell 3 4. in
      Alcotest.(check bool) "associative" true
        (Metrics.merge_telemetry (Metrics.merge_telemetry a b) c
        = Metrics.merge_telemetry a (Metrics.merge_telemetry b c)))

(* Hedged cluster runs keep the schedule-independence contract: the
   LB policy's probe PRNG is seeded from the experiment seed (never
   global state), so a sweep mixing hedged and plain configurations is
   structurally identical at any job count and schedule. *)
let prop_hedged_sweep_schedule_independent =
  let module CS = Xc_platforms.Cluster_sim in
  let configs =
    lazy
      (let platform =
         Xc_platforms.Platform.create
           (Xc_platforms.Config.make Xc_platforms.Config.X_container)
       in
       let base =
         {
           (CS.config_of_platform ~containers:3 ~connections:2 platform) with
           CS.duration_ns = 5e7;
           warmup_ns = 1e7;
         }
       in
       [
         base;
         { base with CS.lb = Some { Xc_lb.Policy.kind = Xc_lb.Policy.Power_of_two; clones = 2 } };
         { base with CS.lb = Some { Xc_lb.Policy.kind = Xc_lb.Policy.Least_loaded; clones = 3 } };
       ])
  in
  let reference = lazy (List.map CS.run (Lazy.force configs)) in
  QCheck.Test.make ~name:"hedged cluster sweeps are schedule-independent"
    ~count:8
    QCheck.(int_range 1 4)
    (fun jobs ->
      let shards =
        List.map
          (fun c -> Parallel.Shard.thunk (fun () -> CS.run c))
          (Lazy.force configs)
      in
      let r = Parallel.run_sharded ~jobs ~oversubscribe:true shards in
      r = Lazy.force reference)

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let suites =
  [
    ( "sim.parallel.sharding",
      [
        Alcotest.test_case "shard counts" `Quick test_shard_counts;
        Alcotest.test_case "merge sees index order" `Quick
          test_merge_sees_index_order;
        Alcotest.test_case "each shard once" `Quick test_each_shard_once;
        Alcotest.test_case "deterministic across jobs" `Quick
          test_deterministic_across_jobs;
        Alcotest.test_case "exception ordering oversubscribed" `Quick
          test_exception_ordering_oversubscribed;
        Alcotest.test_case "trace concat rebases" `Quick
          test_trace_concat_rebases;
        Alcotest.test_case "merge_telemetry" `Quick test_merge_telemetry;
      ]
      @ qsuite [ prop_deterministic; prop_hedged_sweep_schedule_independent ] );
  ]
