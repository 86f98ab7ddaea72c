(* The causal what-if profiler, proven four ways: a hand-built forest
   with the blame chains worked out on paper (nested request included);
   a QCheck property pinning the telescoping identity — every chain's
   segments sum exactly to the chain's duration — against an
   independent O(n^2) containment-forest reference; the prediction vs
   rerun differential in the regime where the linear model must hold
   (1 connection, off the scheduling knee); and the sweep's
   byte-identical-at-any-jobs contract.  Plus the [Whatif] axis
   algebra (parse/print round-trip, validation, scale-1 identity) and
   the [Metrics] alert rules the observability satellites ride on. *)

module Trace = Xc_trace.Trace
module CP = Xc_obs.Critical_path
module Whatif = Xc_obs.Whatif
module Causal = Xc_obs.Causal
module CS = Xc_platforms.Cluster_sim
module M = Xc_sim.Metrics

let mk ?(kind = Trace.Span) ?(v = 0.) ~cat ~name ts dur =
  Trace.make ~kind ~cat ~name ~ts ~dur ~value:v

let contains s needle =
  let n = String.length needle and l = String.length s in
  let rec scan i = i + n <= l && (String.sub s i n = needle || scan (i + 1)) in
  scan 0

let seg_t = Alcotest.(list (triple string int (float 1e-6)))
let segs l = List.map (fun (s : CP.segment) -> (s.CP.seg_label, s.CP.seg_spans, s.CP.seg_ns)) l

(* ---------------- hand-built chains ---------------- *)

(* request A [0,100]: a syscall-entry [5,15] (self 10), a nested
   request B [20,50] (charged whole, 30), a net.hop [60,90] (self 30);
   B contains a cpu [25,35] (self 10).  A stray ctx-switch sits
   outside any request.  Chains must telescope:
     A: 10 + 30 + 30 + self 30        = 100
     B: 10 + self 20                  = 30 *)
let unit_forest =
  [
    mk ~cat:"net.hop" ~name:"server" 60. 30.;
    mk ~v:1. ~cat:"request" ~name:"r" 0. 100.;
    mk ~cat:"cpu" ~name:"user" 25. 10.;
    mk ~v:2. ~cat:"request" ~name:"r" 20. 30.;
    mk ~cat:"syscall-entry" ~name:"entry" 5. 10.;
    mk ~cat:"ctx-switch" ~name:"stray" 500. 5.;
    mk ~kind:Trace.Instant ~cat:"noise" ~name:"tick" 3. 0.;
  ]

let test_unit_chains () =
  let t = CP.extract unit_forest in
  Alcotest.(check int) "two chains" 2 (List.length t.CP.chains);
  (match t.CP.chains with
  | [ a; b ] ->
      Alcotest.(check int) "slowest first" 1 a.CP.chain_id;
      Alcotest.(check (float 1e-6)) "A total" 100. a.CP.chain_total;
      Alcotest.check seg_t "A segments, largest first, ties by label"
        [
          (CP.nested_label, 1, 30.); (CP.self_label, 1, 30.);
          ("net.hop", 1, 30.); ("syscall-entry", 1, 10.);
        ]
        (segs a.CP.segments);
      Alcotest.(check int) "B id" 2 b.CP.chain_id;
      Alcotest.check seg_t "B segments"
        [ (CP.self_label, 1, 20.); ("cpu", 1, 10.) ]
        (segs b.CP.segments)
  | _ -> Alcotest.fail "unreachable");
  Alcotest.(check (float 1e-6)) "stray is unattributed" 5. t.CP.unattributed_ns;
  let s = CP.summarize t in
  Alcotest.(check (float 1e-6)) "path length sums chain totals" 130. s.CP.path_ns;
  Alcotest.(check (float 1e-6)) "share of net.hop" (30. /. 130.)
    (CP.share s "net.hop");
  Alcotest.(check (float 1e-6)) "share of an absent label" 0.
    (CP.share s "frobnicate");
  let r = CP.render s in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "render mentions %S" needle)
        true (contains r needle))
    [ "critical path: 2 request(s)"; "net.hop"; CP.nested_label; "outside any" ];
  let rc = CP.render_chain (List.hd t.CP.chains) in
  Alcotest.(check bool) "chain render has the header" true
    (contains rc "request r#1")

(* ---------------- QCheck: telescoping vs O(n^2) reference -------- *)

let eps_for x = (1e-9 *. Float.abs x) +. 1e-6

(* Independent reference: explicit O(n^2) parent array over the same
   canonical order, then per-request chain tables read off the parent
   links rather than a stack sweep. *)
let reference_chains events =
  let spans =
    List.filter
      (fun e -> (Trace.kind e) = Trace.Span && (Trace.dur e) > 0.)
      events
  in
  let a =
    Array.of_list
      (List.stable_sort
         (fun x y ->
           match Float.compare (Trace.ts x) (Trace.ts y) with
           | 0 -> (
               match Float.compare (Trace.dur y) (Trace.dur x) with
               | 0 -> compare (Trace.cat x, Trace.name x) (Trace.cat y, Trace.name y)
               | c -> c)
           | c -> c)
         spans)
  in
  let n = Array.length a in
  let ends = Array.map (fun e -> (Trace.ts e) +. (Trace.dur e)) a in
  let parent = Array.make n (-1) in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      if ends.(j) +. eps_for ends.(j) >= ends.(i) then parent.(i) <- j
    done
  done;
  let self = Array.map (fun e -> (Trace.dur e)) a in
  for i = 0 to n - 1 do
    if parent.(i) >= 0 then
      self.(parent.(i)) <- self.(parent.(i)) -. (Trace.dur a.(i))
  done;
  let rec owner i =
    match parent.(i) with
    | -1 -> -1
    | j -> if (Trace.cat a.(j)) = "request" then j else owner j
  in
  (* chain table per request span index: label -> (spans, ns) *)
  let chains = Hashtbl.create 16 in
  let table i =
    match Hashtbl.find_opt chains i with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 8 in
        Hashtbl.add chains i t;
        t
  in
  let bump i label ns =
    let t = table i in
    let c, v = Option.value ~default:(0, 0.) (Hashtbl.find_opt t label) in
    Hashtbl.replace t label (c + 1, v +. ns)
  in
  let unattributed = ref 0. in
  for i = 0 to n - 1 do
    if (Trace.cat a.(i)) = "request" then begin
      bump i CP.self_label self.(i);
      match owner i with
      | -1 -> ()
      | j -> bump j CP.nested_label (Trace.dur a.(i))
    end
    else
      match owner i with
      | -1 -> unattributed := !unattributed +. self.(i)
      | j -> bump j (Trace.cat a.(i)) self.(i)
  done;
  let out = ref [] in
  for i = 0 to n - 1 do
    if (Trace.cat a.(i)) = "request" then begin
      let t = table i in
      let segs =
        Hashtbl.fold (fun label (c, ns) l -> (label, c, ns) :: l) t []
        |> List.sort compare
      in
      out :=
        (int_of_float (Trace.value a.(i)), (Trace.dur a.(i)), segs) :: !out
    end
  done;
  (List.sort compare !out, !unattributed)

let forest_of quads =
  List.map
    (fun (ts, dur, roll, id) ->
      if roll = 10 then
        mk ~kind:Trace.Instant ~cat:"noise" ~name:"tick" (float_of_int ts) 0.
      else if roll < 3 then
        mk ~v:(float_of_int id) ~cat:"request" ~name:"r" (float_of_int ts)
          (float_of_int dur)
      else
        let cats =
          [| "cpu"; "net.hop"; "syscall-entry"; "sched"; "syscall-work";
             "irq"; "ctx-switch" |]
        in
        mk ~cat:cats.(roll - 3) ~name:"m" (float_of_int ts) (float_of_int dur))
    quads

let close a b = Float.abs (a -. b) <= 1e-6 +. (1e-9 *. Float.abs b)

let r6 x = Float.round (x *. 1e6) /. 1e6

let telescope_prop =
  QCheck.Test.make
    ~name:"critical path telescopes and matches O(n^2) reference" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 30)
           (quad (int_range 0 80) (int_range 0 40) (int_range 0 10)
              (int_range 0 15))))
    (fun quads ->
      let events = forest_of quads in
      let t = CP.extract events in
      (* The tentpole invariant: every chain's segments sum exactly to
         the chain's end-to-end duration. *)
      List.iter
        (fun (c : CP.chain) ->
          let sum =
            List.fold_left (fun a s -> a +. s.CP.seg_ns) 0. c.CP.segments
          in
          if not (close sum c.CP.chain_total) then
            QCheck.Test.fail_reportf
              "chain %d: segments %.9f <> total %.9f" c.CP.chain_id sum
              c.CP.chain_total)
        t.CP.chains;
      (* ... which makes the summary telescope too. *)
      let s = CP.summarize t in
      let share_sum =
        List.fold_left (fun a seg -> a +. seg.CP.seg_ns) 0. s.CP.shares
      in
      if not (close share_sum s.CP.path_ns) then
        QCheck.Test.fail_reportf "summary: shares %.9f <> path %.9f" share_sum
          s.CP.path_ns;
      (* Same chains as the reference, as multisets. *)
      let ref_chains, ref_unatt = reference_chains events in
      let got =
        List.sort compare
          (List.map
             (fun (c : CP.chain) ->
               ( c.CP.chain_id, c.CP.chain_total,
                 List.sort compare
                   (List.map
                      (fun (s : CP.segment) ->
                        (s.CP.seg_label, s.CP.seg_spans, r6 s.CP.seg_ns))
                      c.CP.segments) ))
             t.CP.chains)
      in
      let want =
        List.map
          (fun (id, dur, segs) ->
            (id, dur, List.map (fun (l, c, ns) -> (l, c, r6 ns)) segs))
          ref_chains
      in
      if got <> want then QCheck.Test.fail_report "chains differ from reference";
      if not (close t.CP.unattributed_ns ref_unatt) then
        QCheck.Test.fail_reportf "unattributed %.9f <> reference %.9f"
          t.CP.unattributed_ns ref_unatt;
      true)

(* ---------------- Whatif axis algebra ---------------- *)

let test_whatif_parse () =
  (match Whatif.validate ~mech:"frobnicate" ~scale:2. with
  | Error e -> Alcotest.(check bool) "names the mechanism" true (contains e "frobnicate")
  | Ok () -> Alcotest.fail "unknown mechanism accepted");
  (match Whatif.validate ~mech:"cpu" ~scale:11. with
  | Error e -> Alcotest.(check bool) "names the range" true (contains e "[0, 10]")
  | Ok () -> Alcotest.fail "scale 11 accepted");
  (match Whatif.validate ~mech:"cpu" ~scale:Float.nan with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "NaN scale accepted");
  Alcotest.(check (result unit string)) "bounds are inclusive" (Ok ())
    (Whatif.validate ~mech:"net.hop" ~scale:0.)

let test_whatif_scale_rows () =
  let rows = [ ("cpu", "user", 10.); ("syscall-entry", "entry", 4.) ] in
  let scaled = Whatif.scale_rows { Whatif.mech = "cpu"; scale = 0.5 } rows in
  Alcotest.(check (list (triple string string (float 1e-9))))
    "only the named category scales"
    [ ("cpu", "user", 5.); ("syscall-entry", "entry", 4.) ]
    scaled

(* Scale 1.0 must reproduce the original run bit for bit: apply_cluster
   re-derives the per-stage service sums with the same fold
   config_of_platform used, so the identity scale is the identity
   config. *)
let test_whatif_identity () =
  let platform =
    Xc_platforms.Platform.create
      (Xc_platforms.Config.make Xc_platforms.Config.Docker)
  in
  let base =
    {
      (CS.config_of_platform ~containers:4 ~connections:1 platform) with
      CS.duration_ns = 4e7;
      warmup_ns = 8e6;
    }
  in
  List.iter
    (fun mech ->
      match Whatif.apply_cluster { Whatif.mech; scale = 1. } base with
      | Error e -> Alcotest.failf "identity %s: %s" mech e
      | Ok c ->
          let r0 = CS.run base and r1 = CS.run c in
          Alcotest.(check (float 0.))
            (Printf.sprintf "identity %s: same throughput" mech)
            r0.CS.throughput_rps r1.CS.throughput_rps;
          Alcotest.(check (float 0.))
            (Printf.sprintf "identity %s: same mean" mech)
            r0.CS.mean_latency_ns r1.CS.mean_latency_ns)
    Whatif.mechanisms

(* ---------------- prediction vs rerun ---------------- *)

(* The acceptance regime: 1 connection per container (off the
   scheduling knee), syscall-entry at 0.7 on Docker — the linear
   attribution-share prediction must land within 10% of the actual
   re-priced rerun on both throughput and mean. *)
let test_predict_vs_rerun () =
  let platform =
    Xc_platforms.Platform.create
      (Xc_platforms.Config.make Xc_platforms.Config.Docker)
  in
  let config =
    {
      (CS.config_of_platform ~containers:4 ~connections:1 platform) with
      CS.duration_ns = 1e8;
      warmup_ns = 2e7;
    }
  in
  let target = { Causal.label = "docker/c1"; config } in
  match
    Causal.sweep_points ~jobs:1
      [ (target.Causal.label, target, "syscall-entry", 0.7) ]
  with
  | Error e -> Alcotest.fail e
  | Ok (baselines, points) ->
      let b = snd (List.hd baselines) and pt = List.hd points in
      Alcotest.(check bool) "baseline attributed requests" true
        (b.Causal.n_requests > 0);
      Alcotest.(check bool) "syscall-entry has attributed share" true
        (List.mem_assoc "syscall-entry" b.Causal.mech_mean);
      let tput_err =
        Float.abs (pt.Causal.pt_pred.Causal.pred_tput
                   -. pt.Causal.pt_rerun.CS.throughput_rps)
        /. pt.Causal.pt_rerun.CS.throughput_rps
      in
      let mean_err =
        Float.abs (pt.Causal.pt_pred.Causal.pred_mean_ns
                   -. pt.Causal.pt_rerun.CS.mean_latency_ns)
        /. pt.Causal.pt_rerun.CS.mean_latency_ns
      in
      if tput_err > 0.10 then
        Alcotest.failf "throughput prediction off by %.1f%%" (100. *. tput_err);
      if mean_err > 0.10 then
        Alcotest.failf "mean prediction off by %.1f%%" (100. *. mean_err);
      (* The rerun must actually have moved: scaling a 30% chunk off
         the syscall entry path is visible on Docker. *)
      Alcotest.(check bool) "rerun is faster than baseline" true
        (pt.Causal.pt_rerun.CS.mean_latency_ns < b.Causal.base.CS.mean_latency_ns)

let test_sweep_deterministic () =
  let target rt =
    let platform =
      Xc_platforms.Platform.create (Xc_platforms.Config.make rt)
    in
    {
      Causal.label = Xc_platforms.Config.runtime_name rt;
      config =
        {
          (CS.config_of_platform ~containers:4 ~connections:1 platform) with
          CS.duration_ns = 4e7;
          warmup_ns = 8e6;
        };
    }
  in
  let targets =
    [ target Xc_platforms.Config.Docker; target Xc_platforms.Config.X_container ]
  in
  let run jobs =
    match
      Causal.sweep ~jobs ~targets ~mechs:[ "syscall-entry"; "ctx-switch" ]
        ~scales:[ 0.7 ]
    with
    | Error e -> Alcotest.fail e
    | Ok (_, points) -> (Causal.render_points points, Causal.points_csv points)
  in
  let out1, csv1 = run 1 and out2, csv2 = run 2 in
  Alcotest.(check string) "rendered table identical at jobs 1 vs 2" out1 out2;
  Alcotest.(check string) "CSV identical at jobs 1 vs 2" csv1 csv2;
  Alcotest.(check bool) "CSV has the header" true
    (contains csv1 "pred_tput_rps")

let test_grid_fails_fast () =
  let config =
    List.hd
      (Xc_suite.Driver.cluster
         {
           Xc_suite.Spec.cluster with
           platform = Xc_platforms.Config.make Xc_platforms.Config.Docker;
         })
  in
  (* A config stripped of its pricing cannot host a cpu what-if; the
     sweep must refuse before running anything. *)
  let stripped = { config with CS.request_mech = [||] } in
  match
    Causal.sweep ~jobs:1
      ~targets:[ { Causal.label = "stripped"; config = stripped } ]
      ~mechs:[ "cpu" ] ~scales:[ 0.5 ]
  with
  | Error e ->
      Alcotest.(check bool) "error names the target and mechanism" true
        (contains e "stripped" && contains e "cpu")
  | Ok _ -> Alcotest.fail "unpriced target accepted"

(* ---------------- Metrics alert rules ---------------- *)

let test_alert_rules () =
  (match M.rule_of_string "net/messages>100" with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check string) "round-trip" "net/messages>100"
        (M.rule_to_string r));
  (match M.rule_of_string "os/tasks<4" with
  | Error e -> Alcotest.fail e
  | Ok r -> Alcotest.(check string) "below" "os/tasks<4" (M.rule_to_string r));
  (match M.rule_of_string "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no-threshold rule accepted");
  (match M.rule_of_string "net/messages>wat" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric threshold accepted")

let test_alert_firings () =
  let snap at v =
    { M.at; values = [ ("net/messages", M.Count v); ("os/tasks", M.Level 8.) ] }
  in
  let tel =
    { M.empty_telemetry with M.snapshots = [ snap 50. 5.; snap 100. 500.; snap 150. 900. ] }
  in
  let rule s =
    match M.rule_of_string s with Ok r -> r | Error e -> Alcotest.fail e
  in
  let fs = M.firings ~rules:[ rule "net/messages>100"; rule "os/tasks<4" ] tel in
  Alcotest.(check int) "two snapshots cross the counter rule" 2
    (List.length fs);
  (match fs with
  | f :: _ ->
      Alcotest.(check (float 1e-9)) "first firing at the first crossing" 100.
        f.M.at;
      Alcotest.(check (float 1e-9)) "carries the value" 500. f.M.value
  | [] -> Alcotest.fail "unreachable");
  let r = M.render_firings fs in
  Alcotest.(check bool) "render names the rule and worst value" true
    (contains r "net/messages>100" && contains r "900");
  Alcotest.(check string) "nothing fired renders empty" ""
    (M.render_firings
       (M.firings ~rules:[ rule "os/tasks<4" ] tel))

let suites =
  [
    ( "causal-critical-path",
      [
        Alcotest.test_case "hand-built chains" `Quick test_unit_chains;
        QCheck_alcotest.to_alcotest telescope_prop;
      ] );
    ( "causal-whatif",
      [
        Alcotest.test_case "parse/validate" `Quick test_whatif_parse;
        Alcotest.test_case "scale_rows" `Quick test_whatif_scale_rows;
        Alcotest.test_case "identity scale" `Quick test_whatif_identity;
        Alcotest.test_case "grid fails fast" `Quick test_grid_fails_fast;
      ] );
    ( "causal-predict",
      [
        Alcotest.test_case "prediction within 10% off the knee" `Quick
          test_predict_vs_rerun;
        Alcotest.test_case "sweep deterministic at any jobs" `Quick
          test_sweep_deterministic;
      ] );
    ( "causal-alerts",
      [
        Alcotest.test_case "rule algebra" `Quick test_alert_rules;
        Alcotest.test_case "firings over a series" `Quick test_alert_firings;
      ] );
  ]
