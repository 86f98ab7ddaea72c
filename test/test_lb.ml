(* Tests for the request-hedging subsystem (lib/lb): policy validity
   and probe accounting, the cancel-on-first-complete conservation
   identities, the PS-analytic oracle, the simulator-vs-closed-form
   differential, and the Fig 9 queueing-tail shape claim. *)

open Xc_lb
module CS = Xc_platforms.Cluster_sim
module Config = Xc_platforms.Config

(* ---------------- Policy ---------------- *)

let test_kind_strings () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Policy.kind_to_string k ^ " round-trips")
        true
        (Policy.kind_of_string (Policy.kind_to_string k) = Ok k))
    Policy.all_kinds;
  Alcotest.(check bool) "rr alias" true (Policy.kind_of_string "rr" = Ok Policy.Round_robin);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "error lists kinds" true
    (match Policy.kind_of_string "banana" with
    | Error msg ->
        List.for_all
          (fun k -> contains msg (Policy.kind_to_string k))
          Policy.all_kinds
    | Ok _ -> false)

let test_round_robin_sets () =
  let p = Policy.create ~backends:6 Policy.Round_robin in
  (* Consecutive sets tile into fixed sub-clusters when d | n. *)
  Alcotest.(check (list int)) "set 0" [ 0; 1 ] (Policy.pick_set p ~clones:2);
  Alcotest.(check (list int)) "set 1" [ 2; 3 ] (Policy.pick_set p ~clones:2);
  Alcotest.(check (list int)) "set 2" [ 4; 5 ] (Policy.pick_set p ~clones:2);
  Alcotest.(check (list int)) "wraps" [ 0; 1 ] (Policy.pick_set p ~clones:2);
  Alcotest.check_raises "clones > backends"
    (Invalid_argument "Xc_lb.Policy.pick_set: clones must be in [1, backends]")
    (fun () -> ignore (Policy.pick_set p ~clones:7))

let test_least_loaded_observes_load () =
  let p = Policy.create ~backends:3 Policy.Least_loaded in
  Policy.admit p 0;
  Policy.admit p 0;
  Policy.admit p 1;
  Alcotest.(check int) "fewest in-flight" 2 (Policy.pick p);
  Policy.admit p 2;
  Policy.admit p 2;
  (* 2/1/2 in flight: backend 1 alone at the minimum. *)
  Alcotest.(check int) "after more admits" 1 (Policy.pick p);
  Policy.complete p 0;
  Policy.complete p 0;
  (* 0/1/2: ties broken by the lowest index. *)
  Alcotest.(check int) "refunds observed" 0 (Policy.pick p)

let test_jsq_observes_queue () =
  let p = Policy.create ~backends:3 Policy.Jsq in
  Policy.enqueue p 0;
  Policy.enqueue p 1;
  Policy.enqueue p 1;
  Alcotest.(check int) "shortest queue" 2 (Policy.pick p);
  Policy.dequeue p 1;
  Policy.dequeue p 1;
  Policy.enqueue p 2;
  (* queues 1/0/1: backend 1 now shortest. *)
  Alcotest.(check int) "dequeue observed" 1 (Policy.pick p)

let arb_kind =
  QCheck.oneofl ~print:Policy.kind_to_string Policy.all_kinds

(* Any policy, any load history: picks are in range, clone sets are
   the requested size and pairwise distinct. *)
let prop_policy_valid_picks =
  QCheck.Test.make ~name:"policy picks are valid clone sets" ~count:200
    QCheck.(
      quad arb_kind (int_range 1 9) (int_range 0 1000)
        (small_list (int_range 0 99)))
    (fun (kind, backends, seed, loads) ->
      let p = Policy.create ~seed ~backends kind in
      (* Replay an arbitrary load history. *)
      List.iter
        (fun l ->
          let b = l mod backends in
          Policy.admit p b;
          Policy.enqueue p b;
          if l land 1 = 0 then Policy.complete p b;
          if l land 3 = 0 then Policy.dequeue p b)
        loads;
      List.for_all
        (fun clones ->
          let set = Policy.pick_set p ~clones in
          List.length set = clones
          && List.for_all (fun b -> b >= 0 && b < backends) set
          && List.length (List.sort_uniq compare set) = clones)
        (List.init backends (fun i -> i + 1)))

(* Power-of-two-choices never probes more than twice per pick, however
   large the cluster or the clone set. *)
let prop_po2c_two_probes =
  QCheck.Test.make ~name:"po2c charges at most two probes per pick" ~count:200
    QCheck.(triple (int_range 1 16) (int_range 0 1000) (int_range 1 50))
    (fun (backends, seed, picks) ->
      let p = Policy.create ~seed ~backends Policy.Power_of_two in
      for i = 1 to picks do
        if i land 1 = 0 then ignore (Policy.pick p)
        else ignore (Policy.pick_set p ~clones:(1 + (i mod backends)))
      done;
      Policy.picks p = picks && Policy.probes p <= 2 * picks)

(* Least-loaded and JSQ clone sets are the [clones] lowest loads, ties
   to the lower index: exactly the prefix a stable sort by load gives,
   found in one pass that probes every backend once.  Loads of 0-3 make
   ties the common case. *)
let prop_k_least_stable_sort =
  QCheck.Test.make ~name:"least-loaded and jsq sets match a stable sort" ~count:500
    (QCheck.make
       ~print:(fun (kind, loads, clones) ->
         Printf.sprintf "%s loads=[%s] clones=%d" (Policy.kind_to_string kind)
           (String.concat ";" (Array.to_list (Array.map string_of_int loads)))
           clones)
       QCheck.Gen.(
         let* kind = oneofl [ Policy.Least_loaded; Policy.Jsq ] in
         let* loads = array_size (int_range 1 40) (int_range 0 3) in
         let* clones = int_range 1 (Array.length loads) in
         return (kind, loads, clones)))
    (fun (kind, loads, clones) ->
      let backends = Array.length loads in
      let p = Policy.create ~backends kind in
      Array.iteri
        (fun b l ->
          for _ = 1 to l do
            if kind = Policy.Jsq then Policy.enqueue p b else Policy.admit p b
          done)
        loads;
      let expected =
        List.filteri
          (fun i _ -> i < clones)
          (List.stable_sort
             (fun a b -> compare loads.(a) loads.(b))
             (List.init backends Fun.id))
      in
      let probes = Policy.probes p in
      let set = Policy.pick_set p ~clones in
      set = expected && Policy.probes p = probes + backends)

(* A d=2 least-loaded pick over 100 backends allocates its k-slot
   buffer and the returned list, and nothing per backend. *)
let test_pick_words () =
  let p = Policy.create ~backends:100 Policy.Least_loaded in
  for b = 0 to 99 do
    for _ = 1 to (b * 7) mod 5 do
      Policy.admit p b
    done
  done;
  let w = Test_sim.words_per_call 10_000 (fun () -> Policy.pick_set p ~clones:2) in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per pick within 9" w) true
    (w <= 9.)

(* ---------------- Oracle ---------------- *)

let test_oracle_plain_mps () =
  (* d = 1 degenerates to plain balanced M/PS: E[S] / (1 - rho). *)
  let service_mean_ns = 200_000. in
  List.iter
    (fun rho ->
      let lambda =
        Oracle.arrival_rate_for ~backends:6 ~clones:1 ~service_mean_ns
          ~utilization:rho
      in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "rho=%.2f" rho)
        (Oracle.mps_mean_ns ~service_mean_ns ~rho)
        (Oracle.cloned_mean_ns ~backends:6 ~clones:1
           ~arrival_rate_per_ns:lambda ~service_mean_ns))
    [ 0.1; 0.5; 0.9 ];
  (* A known point: 200us service at 50% load doubles. *)
  Alcotest.(check (float 1e-6)) "known point" 400_000.
    (Oracle.mps_mean_ns ~service_mean_ns ~rho:0.5)

let test_oracle_cloning_maths () =
  (* Cloning multiplies the effective utilization by d... *)
  let lambda = 1e-5 and service_mean_ns = 30_000. in
  Alcotest.(check (float 1e-9)) "effective utilization" 0.15
    (Oracle.effective_utilization ~backends:6 ~clones:3
       ~arrival_rate_per_ns:lambda ~service_mean_ns);
  (* ... so at fixed lambda, more clones means a slower system. *)
  let mean d =
    Oracle.cloned_mean_ns ~backends:6 ~clones:d ~arrival_rate_per_ns:lambda
      ~service_mean_ns
  in
  Alcotest.(check bool) "d=2 slower than d=1" true (mean 2 > mean 1);
  Alcotest.(check bool) "d=3 slower than d=2" true (mean 3 > mean 2)

let test_oracle_invalid () =
  let sm = 1000. in
  Alcotest.check_raises "rho >= 1"
    (Invalid_argument "Xc_lb.Oracle.mps_mean_ns: rho must be in [0, 1)")
    (fun () -> ignore (Oracle.mps_mean_ns ~service_mean_ns:sm ~rho:1.));
  Alcotest.check_raises "non-dividing clones"
    (Invalid_argument "Xc_lb.Oracle: clones must divide backends") (fun () ->
      ignore
        (Oracle.cloned_mean_ns ~backends:6 ~clones:4 ~arrival_rate_per_ns:1e-6
           ~service_mean_ns:sm));
  (* An overloaded shape (rho_eff >= 1) fails through the same M/PS
     domain check — the closed form has no answer there. *)
  Alcotest.check_raises "overload"
    (Invalid_argument "Xc_lb.Oracle.mps_mean_ns: rho must be in [0, 1)")
    (fun () ->
      ignore
        (Oracle.cloned_mean_ns ~backends:2 ~clones:2 ~arrival_rate_per_ns:1e-3
           ~service_mean_ns:sm))

(* ---------------- Hedge: conservation invariants ---------------- *)

let close ?(tol = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol *. scale

(* Exact work accounting under cancel-on-first-complete, at any load,
   clone factor and dispatch: after the drain, every busy nanosecond
   is either a winner's service or a sibling's pre-cancellation work,
   and each sibling's requirement splits exactly into done-plus-refund. *)
let prop_hedge_conservation =
  QCheck.Test.make ~name:"hedge work conservation is exact" ~count:25
    QCheck.(
      quad (int_range 1 3)
        (oneofl [ Hedge.Subcluster; Hedge.Policy Policy.Least_loaded;
                  Hedge.Policy Policy.Power_of_two ])
        (int_range 0 1000)
        (oneofl [ 0.2; 0.45; 0.7 ]))
    (fun (clones, dispatch, seed, u) ->
      let cfg =
        Hedge.config_for_utilization ~backends:6 ~clones ~dispatch ~seed
          ~duration_ns:2e8 ~utilization:u ()
      in
      let r = Hedge.run cfg in
      r.Hedge.completed > 0
      && close r.Hedge.busy_ns
           (r.Hedge.winner_service_ns +. r.Hedge.cancelled_work_ns)
      && close
           (r.Hedge.cancelled_work_ns +. r.Hedge.refunded_ns)
           (float_of_int (clones - 1) *. r.Hedge.winner_service_ns)
      && r.Hedge.clones_cancelled
         = (clones - 1) * r.Hedge.clones_spawned / clones)

let test_hedge_shape_validation () =
  Alcotest.check_raises "clones out of range"
    (Invalid_argument "Xc_lb.Hedge.run: clones must be in [1, backends]")
    (fun () ->
      ignore (Hedge.run { Hedge.default_config with clones = 7 }));
  Alcotest.check_raises "non-dividing subcluster"
    (Invalid_argument "Xc_lb.Hedge.run: Subcluster needs clones to divide backends")
    (fun () ->
      ignore (Hedge.run { Hedge.default_config with clones = 4 }));
  Alcotest.check_raises "unstable"
    (Invalid_argument "Xc_lb.Hedge.run: unstable (utilization >= 1)")
    (fun () ->
      ignore
        (Hedge.run
           { Hedge.default_config with arrival_rate_per_ns = 1e-2 }))

let test_hedge_deterministic () =
  let cfg =
    Hedge.config_for_utilization ~clones:2 ~duration_ns:1e8 ~utilization:0.5 ()
  in
  Alcotest.(check bool) "same seed, same run" true (Hedge.run cfg = Hedge.run cfg);
  let other = Hedge.run { cfg with seed = cfg.Hedge.seed + 1 } in
  Alcotest.(check bool) "different seed, different sample path" true
    (other.Hedge.mean_ns <> (Hedge.run cfg).Hedge.mean_ns)

(* ---------------- Differential: simulator vs closed form -------- *)

(* The acceptance gate: across utilizations x clone factors, the
   simulated mean response of the subcluster-dispatch system converges
   to the analytic M/PS closed form within 5%. *)
let test_differential_oracle () =
  List.iter
    (fun u ->
      List.iter
        (fun d ->
          let cfg =
            Hedge.config_for_utilization ~backends:6 ~clones:d
              ~duration_ns:1.2e10 ~utilization:u ()
          in
          let r = Hedge.run cfg in
          let oracle =
            Oracle.cloned_mean_ns ~backends:6 ~clones:d
              ~arrival_rate_per_ns:cfg.Hedge.arrival_rate_per_ns
              ~service_mean_ns:cfg.Hedge.service_mean_ns
          in
          let delta = Float.abs (r.Hedge.mean_ns -. oracle) /. oracle in
          if delta > 0.05 then
            Alcotest.failf "u=%.2f d=%d: sim %.0fns vs oracle %.0fns (%.1f%%)"
              u d r.Hedge.mean_ns oracle (delta *. 100.))
        [ 1; 2; 3 ])
    [ 0.3; 0.5; 0.65 ]

(* ---------------- Drivers: Fig 9 shape and closed loop ---------- *)

(* The paper-facing claim behind `xc lb tail`: at the saturated Fig 9
   point (5 connections per container) least-loaded routing without
   cloning trims the X-Container queueing tail, while a d=2 hedge
   inflates it (the clones share the same saturated cores — exactly
   what the oracle's effective utilization predicts). *)
let test_cluster_shape () =
  let platform = Xc_platforms.Platform.create (Config.make Config.X_container) in
  let base = CS.config_of_platform ~containers:4 ~connections:5 platform in
  let hedged kind clones =
    { base with CS.lb = Some { Policy.kind; clones } }
  in
  let rb = CS.run base in
  let rl = CS.run (hedged Policy.Least_loaded 1) in
  let rh = CS.run (hedged Policy.Least_loaded 2) in
  Alcotest.(check bool) "least-loaded d=1 trims the saturated tail" true
    (rl.CS.p99_latency_ns < rb.CS.p99_latency_ns);
  Alcotest.(check bool) "d=2 hedging inflates the saturated tail" true
    (rh.CS.p99_latency_ns > rb.CS.p99_latency_ns)

(* Hedged traced runs attribute their overhead: the d=2 bundle carries
   an [lb.hedge] clone-x2 row, and the capture still partitions into
   request windows (the tails machinery keeps working). *)
let test_cluster_hedge_trace_row () =
  let module Trace = Xc_trace.Trace in
  let platform = Xc_platforms.Platform.create (Config.make Config.X_container) in
  let base = CS.config_of_platform ~containers:4 ~connections:5 platform in
  let cfg = { base with CS.lb = Some { Policy.kind = Policy.Least_loaded; clones = 2 } } in
  Trace.enable ~capacity:(1 lsl 18) ();
  let (), captured = Trace.capture (fun () -> ignore (CS.run cfg)) in
  Trace.disable ();
  ignore (Trace.take ());
  let events = captured.Trace.events in
  let hedge_rows =
    List.filter (fun (e : Trace.event) -> e.Trace.cat = "lb.hedge") events
  in
  Alcotest.(check bool) "lb.hedge rows present" true (hedge_rows <> []);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check string) "row names the fan-out" "clone-x2" e.Trace.name;
      Alcotest.(check bool) "positive duration" true (e.Trace.dur > 0.))
    hedge_rows;
  let att = Xc_trace.Profile.attribute events in
  Alcotest.(check bool) "capture still partitions into requests" true
    (Xc_trace.Profile.request_totals att <> [])

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let suites =
  [
    ( "lb.policy",
      [
        Alcotest.test_case "kind strings" `Quick test_kind_strings;
        Alcotest.test_case "round-robin clone sets" `Quick test_round_robin_sets;
        Alcotest.test_case "least-loaded observes load" `Quick
          test_least_loaded_observes_load;
        Alcotest.test_case "jsq observes queue" `Quick test_jsq_observes_queue;
        Alcotest.test_case "words per pick" `Quick test_pick_words;
      ]
      @ qsuite [ prop_policy_valid_picks; prop_po2c_two_probes; prop_k_least_stable_sort ] );
    ( "lb.oracle",
      [
        Alcotest.test_case "d=1 is plain M/PS" `Quick test_oracle_plain_mps;
        Alcotest.test_case "cloning maths" `Quick test_oracle_cloning_maths;
        Alcotest.test_case "invalid arguments" `Quick test_oracle_invalid;
      ] );
    ( "lb.hedge",
      [
        Alcotest.test_case "shape validation" `Quick test_hedge_shape_validation;
        Alcotest.test_case "deterministic in seed" `Quick
          test_hedge_deterministic;
        Alcotest.test_case "differential vs oracle" `Slow
          test_differential_oracle;
      ]
      @ qsuite [ prop_hedge_conservation ] );
    ( "lb.drivers",
      [
        Alcotest.test_case "fig9 shape: policy beats hedging at saturation"
          `Slow test_cluster_shape;
        Alcotest.test_case "hedge trace row" `Quick test_cluster_hedge_trace_row;
      ] );
  ]
