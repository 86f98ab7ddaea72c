(* Tests for the global telemetry registry (Xc_sim.Metrics): typed
   emitters, sim-clock snapshotting by the engine, the retention bound,
   and the determinism contract — per-cell captures joined by
   [merge_telemetry] must give the same telemetry at any jobs count and
   however the samples are partitioned into cells. *)

module M = Xc_sim.Metrics
module H = Xc_sim.Histogram
module E = Ref_engine

(* Every test runs against an enabled registry and leaves the recorder
   off (other suites must not see stray metrics).  Settings persist
   across enables by design, so pin both explicitly.  A test reads what
   it emitted through [recorded], a capture on a fresh registry. *)
let with_metrics ?(interval_ns = M.default_interval_ns)
    ?(retention = M.default_retention) f () =
  M.enable ~interval_ns ~retention ();
  Fun.protect ~finally:M.disable f

let recorded f = snd (M.capture f)

let test_disabled_is_free =
  with_metrics (fun () ->
      (* The capture opens enabled and reads the registry the disabled
         emitters left behind. *)
      let tel =
        recorded (fun () ->
            M.disable ();
            M.counter_incr ~cat:"cpu" ~name:"x";
            M.gauge_set ~cat:"os" ~name:"y" 7.;
            M.take_snapshot ~at:100.;
            M.enable ())
      in
      Alcotest.(check int) "no snapshots" 0 (List.length tel.M.snapshots);
      Alcotest.(check int) "no counters" 0 (List.length tel.M.counters);
      Alcotest.(check int) "no gauges" 0 (List.length tel.M.gauges))

let test_emitters_and_snapshot =
  with_metrics (fun () ->
      let tel =
        recorded (fun () ->
            M.counter_add ~cat:"cpu" ~name:"busy-ns" 10.;
            M.counter_incr ~cat:"cpu" ~name:"busy-ns";
            M.gauge_set ~cat:"os" ~name:"runqueue" 3.;
            M.gauge_add ~cat:"os" ~name:"runqueue" 2.;
            M.hist_observe ~cat:"platform" ~name:"latency-ns" 500.;
            M.hist_observe ~cat:"platform" ~name:"latency-ns" 700.;
            M.take_snapshot ~at:50_000.)
      in
      Alcotest.(check int) "one snapshot" 1 (List.length tel.M.snapshots);
      let s = List.hd tel.M.snapshots in
      Alcotest.(check (float 0.)) "at" 50_000. s.M.at;
      (* Keys are sorted: cpu/... < os/... < platform/... *)
      Alcotest.(check (list string)) "sorted keys"
        [ "cpu/busy-ns"; "os/runqueue"; "platform/latency-ns" ]
        (List.map fst s.M.values);
      (match List.assoc "cpu/busy-ns" s.M.values with
      | M.Count v -> Alcotest.(check (float 0.)) "counter" 11. v
      | _ -> Alcotest.fail "cpu/busy-ns should be a counter");
      (match List.assoc "os/runqueue" s.M.values with
      | M.Level v -> Alcotest.(check (float 0.)) "gauge" 5. v
      | _ -> Alcotest.fail "os/runqueue should be a gauge");
      match List.assoc "platform/latency-ns" s.M.values with
      | M.Dist d -> Alcotest.(check int) "dist n" 2 d.M.n
      | _ -> Alcotest.fail "platform/latency-ns should be a dist")

let test_kind_mismatch_raises =
  with_metrics (fun () ->
      M.counter_incr ~cat:"cpu" ~name:"k";
      Alcotest.check_raises "gauge on a counter key"
        (Invalid_argument "Metrics: cpu/k already registered with another kind")
        (fun () -> M.gauge_set ~cat:"cpu" ~name:"k" 1.))

let test_boundary_sampling =
  (* Boundaries k*dt in (from, until]: a jump from 0 to 10*dt crosses
     exactly 10; a second jump of less than dt crosses none. *)
  with_metrics ~interval_ns:1_000. (fun () ->
      let tel =
        recorded (fun () ->
            M.counter_incr ~cat:"cpu" ~name:"e";
            M.sample_boundaries ~from:0. ~until:10_000.;
            M.sample_boundaries ~from:10_000. ~until:10_999.)
      in
      Alcotest.(check int) "10 boundary snapshots" 10
        (List.length tel.M.snapshots);
      Alcotest.(check (list (float 0.))) "at k*dt"
        [ 1e3; 2e3; 3e3; 4e3; 5e3; 6e3; 7e3; 8e3; 9e3; 10e3 ]
        (List.map (fun (s : M.snapshot) -> s.M.at) tel.M.snapshots))

let test_retention_bound =
  with_metrics ~interval_ns:1_000. ~retention:4 (fun () ->
      let tel =
        recorded (fun () ->
            M.counter_incr ~cat:"cpu" ~name:"e";
            (* One huge jump: 100 boundaries, only the last 4 survive —
               and the skip-ahead must account the other 96 as
               dropped. *)
            M.sample_boundaries ~from:0. ~until:100_000.)
      in
      Alcotest.(check int) "4 kept" 4 (List.length tel.M.snapshots);
      Alcotest.(check int) "96 dropped" 96 tel.M.snap_dropped;
      Alcotest.(check (float 0.)) "last is at until" 100_000.
        (List.nth tel.M.snapshots 3).M.at)

let test_engine_advance_snapshots =
  (* The engine samples boundaries as its clock advances through
     scheduled events — including the final run ~until jump. *)
  with_metrics ~interval_ns:1_000. (fun () ->
      let tel =
        recorded (fun () ->
            let e = E.create () in
            for i = 1 to 5 do
              E.schedule e (float_of_int i *. 700.) (fun _ ->
                  M.counter_incr ~cat:"cpu" ~name:"ev")
            done;
            E.run ~until:5_000. e)
      in
      Alcotest.(check int) "snapshot per 1000ns boundary" 5
        (List.length tel.M.snapshots);
      match List.assoc "cpu/ev" (List.hd tel.M.snapshots).M.values with
      | M.Count v ->
          (* Boundary 1000 is sampled before the event at 1400 runs:
             only the event at 700 has fired. *)
          Alcotest.(check (float 0.)) "boundary before event" 1. v
      | _ -> Alcotest.fail "cpu/ev should be a counter")

let test_capture_isolates =
  with_metrics (fun () ->
      let outer =
        recorded (fun () ->
            M.counter_add ~cat:"cpu" ~name:"outer" 5.;
            let tel =
              recorded (fun () ->
                  M.counter_add ~cat:"cpu" ~name:"inner" 2.;
                  M.take_snapshot ~at:42.)
            in
            (* The capture saw only its own emissions... *)
            Alcotest.(check (list string)) "captured counter"
              [ "cpu/inner" ] (List.map fst tel.M.counters);
            Alcotest.(check int) "captured snapshot" 1
              (List.length tel.M.snapshots))
      in
      (* ...and the outer registry was untouched by the inner run. *)
      Alcotest.(check (list (pair string (float 0.)))) "outer intact"
        [ ("cpu/outer", 5.) ] outer.M.counters;
      Alcotest.(check int) "outer took no snapshot" 0
        (List.length outer.M.snapshots))

(* The cross-domain contract: telemetry joined after a pool run is the
   same at jobs 1 and jobs 2 — each cell captures its own telemetry and
   [merge_telemetry] folds them in cell order: counters summed, gauges
   last-writer-wins, snapshots concatenated, histograms merged
   bucket-wise. *)
let thunks () =
  List.map
    (fun i () ->
      M.capture (fun () ->
          M.counter_add ~cat:"cpu" ~name:"work" (float_of_int i);
          M.gauge_set ~cat:"os" ~name:"level" (float_of_int i);
          for k = 1 to 50 do
            M.hist_observe ~cat:"platform" ~name:"lat"
              (float_of_int (((i * 7919) + (k * 104729)) mod 10_000))
          done;
          M.take_snapshot ~at:(float_of_int i *. 1_000.);
          i))
    [ 1; 2; 3; 4; 5; 6 ]

let run_at ~jobs =
  M.enable ();
  let cells =
    Xc_sim.Parallel.run_sharded ~jobs
      (List.map Xc_sim.Parallel.Shard.thunk (thunks ()))
  in
  M.disable ();
  ( List.map fst cells,
    List.fold_left
      (fun a (_, t) -> M.merge_telemetry a t)
      M.empty_telemetry cells )

let test_parallel_jobs_deterministic () =
  let vs1, t1 = run_at ~jobs:1 in
  let vs2, t2 = run_at ~jobs:2 in
  Alcotest.(check (list int)) "results" vs1 vs2;
  Alcotest.(check (list (pair string (float 0.)))) "counters" t1.M.counters
    t2.M.counters;
  Alcotest.(check (list (pair string (float 0.)))) "gauges" t1.M.gauges
    t2.M.gauges;
  Alcotest.(check (list (float 0.))) "snapshot times"
    (List.map (fun (s : M.snapshot) -> s.M.at) t1.M.snapshots)
    (List.map (fun (s : M.snapshot) -> s.M.at) t2.M.snapshots);
  List.iter2
    (fun (ka, ha) (kb, hb) ->
      Alcotest.(check string) "hist key" ka kb;
      Alcotest.(check bool) "hist equal" true (H.equal ha hb))
    t1.M.hists t2.M.hists;
  (* And the exported counter-event rows are identical, which is what
     the --timeseries artifact contract really says. *)
  let render t =
    List.map
      (fun ev ->
        let module T = Xc_trace.Trace in
        Printf.sprintf "%s/%s@%.3f=%.6f" (T.cat ev) (T.name ev) (T.ts ev) (T.value ev))
      (M.to_trace_events t)
  in
  Alcotest.(check (list string)) "trace events" (render t1) (render t2)

(* QCheck: bucket-wise histogram merge is associative and commutative
   (the property the Dist snapshot projection relies on — float-sum
   statistics would break it, which is why dist_view has no mean). *)
let hist_of_samples l =
  let h = H.create () in
  List.iter (fun x -> H.add h (Float.abs x +. 1.)) l;
  h

let qcheck_merge_associative =
  QCheck.Test.make ~count:200 ~name:"Histogram.merge is associative"
    QCheck.(triple (list float) (list float) (list float))
    (fun (a, b, c) ->
      let ha = hist_of_samples a
      and hb = hist_of_samples b
      and hc = hist_of_samples c in
      H.equal
        (H.merge (H.merge ha hb) hc)
        (H.merge ha (H.merge hb hc)))

let qcheck_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"Histogram.merge is commutative"
    QCheck.(pair (list float) (list float))
    (fun (a, b) ->
      let ha = hist_of_samples a and hb = hist_of_samples b in
      H.equal (H.merge ha hb) (H.merge hb ha))

(* QCheck: however a stream of samples is partitioned across capture
   groups, merging the captures yields the same histogram as recording
   them in one — the "snapshot merge is associative across domains"
   property. *)
let qcheck_capture_partition =
  QCheck.Test.make ~count:100
    ~name:"Metrics capture/inject invariant under partitioning"
    QCheck.(pair (list (pair small_nat (int_bound 3))) (int_bound 3))
    (fun (samples, _) ->
      let groups = 4 in
      let observe keep =
        List.iter
          (fun (v, tag) ->
            if keep tag then M.hist_observe ~cat:"p" ~name:"h" (float_of_int (v + 1)))
          samples
      in
      M.enable ();
      let a =
        List.fold_left M.merge_telemetry M.empty_telemetry
          (List.init groups (fun g ->
               recorded (fun () -> observe (fun tag -> tag mod groups = g))))
      in
      let b = recorded (fun () -> observe (fun _ -> true)) in
      M.disable ();
      match (a.M.hists, b.M.hists) with
      | [ (_, ha) ], [ (_, hb) ] -> H.equal ha hb
      | [], [] -> samples = []
      | _ -> samples = [])

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "disabled emitters are no-ops" `Quick
          test_disabled_is_free;
        Alcotest.test_case "emitters, snapshot, sorted keys" `Quick
          test_emitters_and_snapshot;
        Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch_raises;
        Alcotest.test_case "boundary sampling in (from, until]" `Quick
          test_boundary_sampling;
        Alcotest.test_case "retention bound with skip-ahead" `Quick
          test_retention_bound;
        Alcotest.test_case "engine advance takes snapshots" `Quick
          test_engine_advance_snapshots;
        Alcotest.test_case "capture isolates, inject merges" `Quick
          test_capture_isolates;
        Alcotest.test_case "Parallel.run telemetry identical at jobs 1 and 2"
          `Quick test_parallel_jobs_deterministic;
        QCheck_alcotest.to_alcotest qcheck_merge_associative;
        QCheck_alcotest.to_alcotest qcheck_merge_commutative;
        QCheck_alcotest.to_alcotest qcheck_capture_partition;
      ] );
  ]
