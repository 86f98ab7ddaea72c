(* The tail-attribution pipeline, proven three ways: a hand-built span
   forest with the partition worked out on paper; a QCheck property
   checking [Profile.attribute] against an independent O(n^2)
   containment-forest reference (and the exact partition identity); and
   a QCheck differential for [Histogram.percentile] against a naive
   sort-based percentile.  Plus the serialisation layer (tails CSV
   round-trip, truncation/garbage fuzz) and the Figure 9 shape the
   pipeline exists to show: at light load, the Docker-vs-X-Container
   p99 gap is the syscall entry path. *)

module Trace = Xc_trace.Trace
module Export = Xc_trace.Export
module Diff = Xc_trace.Diff
module Profile = Xc_trace.Profile
module Config = Xc_platforms.Config
module Histogram = Xc_sim.Histogram

let with_trace ?(capacity = Trace.default_capacity) f =
  Trace.enable ~capacity ();
  Fun.protect
    ~finally:Trace.disable f

let contains s needle =
  let n = String.length needle and l = String.length s in
  let rec scan i = i + n <= l && (String.sub s i n = needle || scan (i + 1)) in
  scan 0

let mk ?(kind = Trace.Span) ?(v = 0.) ~cat ~name ts dur =
  Trace.make ~kind ~cat ~name ~ts ~dur ~value:v

let mech_t = Alcotest.(list (triple string int (float 1e-6)))

(* ---------------- hand-built forest ---------------- *)

(* request 1 [0,100]: two syscall-entry spans (10+10), a net.hop
   [40,80] containing a syscall-work [45,55] (hop self 30, work 10);
   request 2 [200,250]: no children; one stray ctx-switch outside any
   window; one instant that must be ignored.  The list is deliberately
   out of order: [attribute] must sort canonically itself. *)
let unit_forest =
  [
    mk ~cat:"syscall-work" ~name:"kernel" 45. 10.;
    mk ~v:2. ~cat:"request" ~name:"unit" 200. 50.;
    mk ~cat:"net.hop" ~name:"server" 40. 40.;
    mk ~v:1. ~cat:"request" ~name:"unit" 0. 100.;
    mk ~cat:"syscall-entry" ~name:"entry" 10. 10.;
    mk ~cat:"syscall-entry" ~name:"entry" 25. 10.;
    mk ~cat:"ctx-switch" ~name:"stray" 500. 5.;
    mk ~kind:Trace.Instant ~cat:"noise" ~name:"tick" 3. 0.;
  ]

let test_unit_forest () =
  let att = Profile.attribute unit_forest in
  Alcotest.(check int) "two requests" 2 (List.length (Profile.requests att));
  (match Profile.requests att with
  | [ r1; r2 ] ->
      Alcotest.(check int) "slowest first" 1 r1.Profile.req_id;
      Alcotest.(check (float 1e-6)) "r1 total" 100. r1.Profile.req_total;
      Alcotest.(check (float 1e-6)) "r1 self" 40. r1.Profile.req_self;
      Alcotest.check mech_t "r1 mechanisms, largest first"
        [ ("net.hop", 1, 30.); ("syscall-entry", 2, 20.);
          ("syscall-work", 1, 10.) ]
        r1.Profile.req_mech;
      Alcotest.(check int) "r2 id" 2 r2.Profile.req_id;
      Alcotest.(check (float 1e-6)) "r2 self is its whole window" 50.
        r2.Profile.req_self;
      Alcotest.check mech_t "r2 has no mechanisms" [] r2.Profile.req_mech
  | _ -> Alcotest.fail "unreachable");
  Alcotest.(check (float 1e-6)) "stray span is unattributed" 5.
    (Profile.unattributed_ns att);
  Alcotest.(check (float 1e-6)) "total self = sum of root durations" 155.
    (Profile.total_self_ns att);
  Alcotest.(check (list (float 1e-6))) "request totals, slowest first"
    [ 100.; 50. ]
    (Profile.request_totals att)

let test_unit_tail_cut () =
  let att = Profile.attribute unit_forest in
  let t = Profile.tail_of ~label:"unit" ~pct:95. ~cut_ns:60. att in
  Alcotest.(check int) "population" 2 t.Profile.n_requests;
  Alcotest.(check int) "only request 1 is at or above the cut" 1
    t.Profile.n_tail;
  Alcotest.check mech_t "tail mechanisms are request 1's"
    [ ("net.hop", 1, 30.); ("syscall-entry", 2, 20.); ("syscall-work", 1, 10.) ]
    t.Profile.tail_mech;
  Alcotest.(check (float 1e-6)) "tail self" 40. t.Profile.tail_self_ns;
  Alcotest.(check (float 1e-6)) "tail total" 100. t.Profile.tail_total_ns;
  let everything = Profile.tail_of ~label:"unit" ~pct:0. ~cut_ns:0. att in
  Alcotest.(check int) "cut 0 selects the whole population" 2
    everything.Profile.n_tail

let test_render_tail () =
  let att = Profile.attribute unit_forest in
  let t = Profile.tail_of ~label:"unit" ~pct:95. ~cut_ns:60. att in
  let s = Profile.render_tail ~slowest:1 t in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "rendering mentions %S" needle)
        true (contains s needle))
    [
      "tail attribution: unit"; "1 of 2 requests"; "mechanism"; "net.hop";
      "(request-self)"; "tail window time"; "slowest 1 tail requests";
    ]

(* A ring that dropped events has lost requests or parts of their
   bundles, so a cut over what is left is over the wrong population:
   the one tail function refuses such a track by name, while complete
   captures and request-free truncated ones still pass. *)
let test_truncated_tail_refused () =
  let captured ?(events = unit_forest) dropped =
    { Trace.events; dropped; streams = []; cursor = 0. }
  in
  (match Xc_obs.Causal.tail_at ~label:"unit" ~pct:99. (captured 0) with
  | Ok (Some t) ->
      Alcotest.(check int) "complete capture is cut" 2 t.Profile.n_requests
  | Ok None | Error _ -> Alcotest.fail "complete capture refused");
  (match Xc_obs.Causal.tail_at ~label:"unit" ~pct:99. (captured 7) with
  | Error e ->
      Alcotest.(check bool) "error names the track and its drop count" true
        (contains e "unit" && contains e "dropped 7")
  | Ok _ -> Alcotest.fail "truncated capture attributed");
  match
    Xc_obs.Causal.tail_at ~label:"quiet" ~pct:99. (captured ~events:[] 3)
  with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> Alcotest.fail "request-free track not skipped"

(* ---------------- QCheck: partition property ---------------- *)

(* Independent reference for [Profile.attribute]: the same canonical
   order, but parenthood computed O(n^2) — the parent of span [i] is
   the latest earlier span whose (epsilon-padded) end still covers
   [i]'s end.  Self-times, owners and buckets then follow from the
   explicit parent array rather than a stack sweep. *)

let eps_for x = (1e-9 *. Float.abs x) +. 1e-6

type ref_req = {
  r_id : int;
  r_name : string;
  r_start : float;
  r_total : float;
  mutable r_self : float;
  r_mech : (string, int * float) Hashtbl.t;
}

let reference_attribute events =
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
  let reqs = Hashtbl.create 16 (* span index -> ref_req *) in
  for i = 0 to n - 1 do
    if (Trace.cat a.(i)) = "request" then
      Hashtbl.replace reqs i
        {
          r_id = int_of_float (Trace.value a.(i));
          r_name = (Trace.name a.(i));
          r_start = (Trace.ts a.(i));
          r_total = (Trace.dur a.(i));
          r_self = self.(i);
          r_mech = Hashtbl.create 8;
        }
  done;
  let unattributed = ref 0. in
  for i = 0 to n - 1 do
    if (Trace.cat a.(i)) <> "request" then begin
      match owner i with
      | -1 -> unattributed := !unattributed +. self.(i)
      | j ->
          let r = Hashtbl.find reqs j in
          let cnt, ns =
            Option.value ~default:(0, 0.)
              (Hashtbl.find_opt r.r_mech (Trace.cat a.(i)))
          in
          Hashtbl.replace r.r_mech (Trace.cat a.(i)) (cnt + 1, ns +. self.(i))
    end
  done;
  let total =
    Array.to_seq a |> Seq.zip (Array.to_seq parent)
    |> Seq.fold_left
         (fun acc (p, e) ->
           if p = -1 then acc +. (Trace.dur e) else acc)
         0.
  in
  let rl = Hashtbl.fold (fun _ r acc -> r :: acc) reqs [] in
  (rl, !unattributed, total)

(* Canonical, comparison-friendly form of one request's attribution:
   mechanisms sorted by category, nanoseconds rounded away from FP
   noise. *)
let canon_req ~id ~name ~start ~total ~self ~mech =
  let r6 x = Float.round (x *. 1e6) /. 1e6 in
  ( id, name, r6 start, r6 total, r6 self,
    List.sort compare (List.map (fun (c, n, ns) -> (c, n, r6 ns)) mech) )

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

let partition_prop =
  QCheck.Test.make ~name:"attribute matches O(n^2) reference + partition"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 30)
           (quad (int_range 0 80) (int_range 0 40) (int_range 0 10)
              (int_range 0 15))))
    (fun quads ->
      let events = forest_of quads in
      let att = Profile.attribute events in
      let ref_reqs, ref_unatt, ref_total = reference_attribute events in
      (* Exact partition identity: buckets + unattributed = total. *)
      let bucket_sum =
        List.fold_left
          (fun acc (r : Profile.attributed_request) ->
            List.fold_left
              (fun acc (_, _, ns) -> acc +. ns)
              (acc +. r.Profile.req_self) r.Profile.req_mech)
          (Profile.unattributed_ns att) (Profile.requests att)
      in
      let close a b = Float.abs (a -. b) <= 1e-6 +. (1e-9 *. Float.abs b) in
      if not (close bucket_sum (Profile.total_self_ns att)) then
        QCheck.Test.fail_reportf "partition: buckets %.9f <> total %.9f"
          bucket_sum (Profile.total_self_ns att);
      if not (close (Profile.total_self_ns att) ref_total) then
        QCheck.Test.fail_reportf "total: %.9f <> reference %.9f"
          (Profile.total_self_ns att) ref_total;
      if not (close (Profile.unattributed_ns att) ref_unatt) then
        QCheck.Test.fail_reportf "unattributed: %.9f <> reference %.9f"
          (Profile.unattributed_ns att) ref_unatt;
      (* Same requests with the same buckets, as multisets. *)
      let got =
        List.sort compare
          (List.map
             (fun (r : Profile.attributed_request) ->
               canon_req ~id:r.Profile.req_id ~name:r.Profile.req_name
                 ~start:r.Profile.req_start ~total:r.Profile.req_total
                 ~self:r.Profile.req_self ~mech:r.Profile.req_mech)
             (Profile.requests att))
      in
      let want =
        List.sort compare
          (List.map
             (fun r ->
               canon_req ~id:r.r_id ~name:r.r_name ~start:r.r_start
                 ~total:r.r_total ~self:r.r_self
                 ~mech:
                   (Hashtbl.fold
                      (fun c (n, ns) acc -> (c, n, ns) :: acc)
                      r.r_mech []))
             ref_reqs)
      in
      if got <> want then
        QCheck.Test.fail_reportf "attribution differs on %d spans"
          (List.length events);
      true)

(* ---------------- QCheck: both sweep paths ---------------- *)

(* [sweep] skips its sort when one pass finds the spans already in
   canonical order, as a bundle lane lays them out.  A forest given in
   canonical order takes that path; the same forest shuffled takes the
   sort.  Each span's name is unique, so no two spans tie in the order
   and both paths must build the same forest — and the same
   attribution, bit for bit.  The forest mixes lane-style bundles
   (requests with serial mechanism children) with random overlapping
   and nested spans. *)
let canonical_order x y =
  match Float.compare (Trace.ts x) (Trace.ts y) with
  | 0 -> (
      match Float.compare (Trace.dur y) (Trace.dur x) with
      | 0 -> compare (Trace.cat x, Trace.name x) (Trace.cat y, Trace.name y)
      | c -> c)
  | c -> c

let lane_of bundles =
  let cursor = ref 1000. in
  List.concat
    (List.mapi
       (fun k (children, slack) ->
         let start = !cursor in
         let total =
           List.fold_left (fun a d -> a +. float_of_int d) 0. children
           +. float_of_int slack
         in
         cursor := start +. total;
         let at = ref start in
         mk ~v:(float_of_int (100 + k)) ~cat:"request" ~name:"lane" start total
         :: List.map
              (fun d ->
                let ts = !at in
                at := ts +. float_of_int d;
                mk ~cat:"syscall-work" ~name:"m" ts (float_of_int d))
              children)
       bundles)

let sweep_paths_prop =
  QCheck.Test.make ~name:"shuffled input attributes like canonical order"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 0 30)
              (quad (int_range 0 80) (int_range 0 40) (int_range 0 10)
                 (int_range 0 15)))
           (list_size (int_range 0 8)
              (pair (list_size (int_range 0 4) (int_range 1 50)) (int_range 0 20)))
           int))
    (fun (quads, bundles, seed) ->
      let events =
        List.mapi
          (fun i ev ->
            Trace.make ~kind:(Trace.kind ev) ~cat:(Trace.cat ev)
              ~name:(Trace.name ev ^ string_of_int i) ~ts:(Trace.ts ev) ~dur:(Trace.dur ev)
              ~value:(Trace.value ev))
          (forest_of quads @ lane_of bundles)
      in
      let canonical = List.stable_sort canonical_order events in
      let rng = Random.State.make [| seed |] in
      let shuffled =
        List.map snd
          (List.stable_sort
             (fun (a, _) (b, _) -> Int.compare a b)
             (List.map (fun ev -> (Random.State.bits rng, ev)) events))
      in
      let a = Profile.attribute canonical and b = Profile.attribute shuffled in
      let tail att =
        let cut =
          Histogram.percentile_floor
            (Histogram.of_samples (Profile.request_totals att))
            99.
        in
        Profile.tail_of ~label:"t" ~pct:99. ~cut_ns:cut att
      in
      if Profile.requests a <> Profile.requests b then
        QCheck.Test.fail_report "requests differ";
      if Profile.unattributed_ns a <> Profile.unattributed_ns b then
        QCheck.Test.fail_report "unattributed_ns differs";
      if Profile.total_self_ns a <> Profile.total_self_ns b then
        QCheck.Test.fail_report "total_self_ns differs";
      if Profile.request_totals a <> Profile.request_totals b then
        QCheck.Test.fail_report "request_totals differ";
      if tail a <> tail b then QCheck.Test.fail_report "tail_of differs";
      true)

(* ---------------- QCheck: percentile differential ---------------- *)

let naive_percentile samples p =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.round (p /. 100. *. float_of_int n)) in
  let rank = Stdlib.max 1 (Stdlib.min n rank) in
  a.(rank - 1)

let sample_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> float_of_int i *. 1.3) (int_range 0 1_000_000);
        (* duplicate-heavy: a tiny support set *)
        oneofl [ 0.; 1.; 7.; 1000.; 1001.; 250_000. ];
      ])

let percentile_prop =
  QCheck.Test.make
    ~name:"Histogram.percentile agrees with sort-based percentile" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 1 200) sample_gen) (int_range 0 100)))
    (fun (samples, p) ->
      let p = float_of_int p in
      let h = Histogram.of_samples samples in
      let hp = Histogram.percentile h p in
      let np = naive_percentile samples p in
      (* Log buckets: accurate to one sub-bucket (~2.2%); 1ns absolute
         floor for the sub-1ns bucket. *)
      let tol = Float.max 1.0 (np /. 16.) in
      if Float.abs (hp -. np) > tol then
        QCheck.Test.fail_reportf "p%.0f: histogram %.3f vs naive %.3f (n=%d)"
          p hp np (List.length samples);
      (* The floor cut never excludes the rank sample itself. *)
      if Histogram.percentile_floor h p > np then
        QCheck.Test.fail_reportf "p%.0f: floor %.3f above rank sample %.3f" p
          (Histogram.percentile_floor h p)
          np;
      true)

let test_percentile_single_value () =
  List.iter
    (fun v ->
      let h = Histogram.of_samples [ v; v; v; v; v ] in
      List.iter
        (fun p ->
          let got = Histogram.percentile h p in
          Alcotest.(check bool)
            (Printf.sprintf "p%g of constant %g within bucket" p v)
            true
            (Float.abs (got -. v) <= Float.max 1.0 (v /. 16.));
          Alcotest.(check bool)
            (Printf.sprintf "floor p%g of constant %g selects it" p v)
            true
            (Histogram.percentile_floor h p <= v))
        [ 0.; 50.; 99.; 100. ])
    [ 0.; 0.7; 1.; 3.; 1000.; 123_456.; 2.5e9 ]

(* ---------------- tails CSV: round-trip and fuzz ---------------- *)

let unit_tails () =
  let att = Profile.attribute unit_forest in
  [
    Profile.tail_of ~label:"unit/A" ~pct:99. ~cut_ns:60. att;
    Profile.tail_of ~label:"unit/B" ~pct:50. ~cut_ns:0. att;
  ]

let check_tails_equal ~msg (want : Profile.tail list)
    (got : Profile.tail list) =
  Alcotest.(check int) (msg ^ ": count") (List.length want) (List.length got);
  List.iter2
    (fun (w : Profile.tail) (g : Profile.tail) ->
      Alcotest.(check string) (msg ^ ": label") w.Profile.label g.Profile.label;
      Alcotest.(check (float 1e-3)) (msg ^ ": pct") w.Profile.pct g.Profile.pct;
      Alcotest.(check (float 1e-3)) (msg ^ ": cut") w.Profile.cut_ns
        g.Profile.cut_ns;
      Alcotest.(check int) (msg ^ ": n_requests") w.Profile.n_requests
        g.Profile.n_requests;
      Alcotest.(check int) (msg ^ ": n_tail") w.Profile.n_tail g.Profile.n_tail;
      Alcotest.check
        Alcotest.(list (triple string int (float 1e-3)))
        (msg ^ ": mech") w.Profile.tail_mech g.Profile.tail_mech;
      Alcotest.(check (float 1e-3)) (msg ^ ": self") w.Profile.tail_self_ns
        g.Profile.tail_self_ns;
      Alcotest.(check (float 1e-3)) (msg ^ ": total") w.Profile.tail_total_ns
        g.Profile.tail_total_ns;
      (* Per-request detail is not serialised. *)
      Alcotest.(check int) (msg ^ ": no per-request detail") 0
        (List.length g.Profile.tail))
    want got

let test_tails_csv_roundtrip () =
  let tails = unit_tails () in
  let csv = Export.to_tails_csv tails in
  (match Export.tails_of_string csv with
  | Ok got -> check_tails_equal ~msg:"string" tails got
  | Error e -> Alcotest.fail e);
  let path = Filename.temp_file "xc_tails" ".tails" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.tails_to_file ~path tails;
      match Export.tails_of_file path with
      | Ok got -> check_tails_equal ~msg:"file" tails got
      | Error e -> Alcotest.fail e)

let test_tails_csv_truncation () =
  let csv = Export.to_tails_csv (unit_tails ()) in
  (* Every prefix parses to Ok or Error — never an exception, and a cut
     inside a tail block must be detected, not silently accepted. *)
  for i = 0 to String.length csv do
    match Export.tails_of_string (String.sub csv 0 i) with
    | Ok _ | Error _ -> ()
  done;
  let lines = String.split_on_char '\n' csv in
  let drop_last_line =
    String.concat "\n" (List.filteri (fun i _ -> i < List.length lines - 2) lines)
  in
  (match Export.tails_of_string drop_last_line with
  | Error e ->
      Alcotest.(check bool) "truncation names the missing row" true
        (contains e "missing")
  | Ok _ -> Alcotest.fail "truncated block accepted");
  (match Export.tails_of_string "label,pct\nnope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Export.tails_of_file "/nonexistent/xc-tails-test.tails" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let tails_fuzz_prop =
  QCheck.Test.make ~name:"tails_of_string never raises" ~count:300
    (QCheck.make QCheck.Gen.(string_size ~gen:printable (int_range 0 200)))
    (fun s ->
      match Export.tails_of_string s with Ok _ | Error _ -> true)

let test_of_file_errors () =
  (match Export.of_file "/nonexistent/xc-trace-test.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing trace file accepted");
  let path = Filename.temp_file "xc_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "bogus,line,that,is,not,a,trace\n";
      close_out oc;
      match Export.of_file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed trace accepted")

(* ---------------- driver integration ---------------- *)

(* A deterministic closed-loop run whose per-request decomposition is
   the recipe's: mechanism rows must sum to the service time, every
   request must carry a syscall-entry bucket, the partition identity
   must hold on the real trace, and nothing may land unattributed
   (bundles cover every span the driver emits). *)
let test_closed_loop_mechanisms () =
  let config = Config.make Config.X_container in
  let platform = Xc_platforms.Platform.create config in
  let recipe = Xc_apps.Nginx.static_request_wrk in
  let mechs = Xc_apps.Recipe.mechanisms platform recipe in
  let service = Xc_apps.Recipe.service_ns platform recipe in
  let mech_sum = List.fold_left (fun a (_, _, ns) -> a +. ns) 0. mechs in
  Alcotest.(check (float (1e-6 *. service)))
    "mechanism rows sum to the recipe service time" service mech_sum;
  Alcotest.(check bool) "rows include the entry path" true
    (List.exists (fun (c, _, ns) -> c = "syscall-entry" && ns > 0.) mechs);
  let cl_config =
    {
      Xc_platforms.Closed_loop.default_config with
      duration_ns = 1e7;
      warmup_ns = 1e6;
      trace_mechanisms = mechs;
    }
  in
  let server =
    {
      Xc_platforms.Closed_loop.units = 2;
      base_ns = service;
      stddev = 0.;
      floor = 0.;
    }
  in
  with_trace (fun () ->
      let result, captured =
        Trace.capture (fun () ->
            Xc_platforms.Closed_loop.run cl_config server)
      in
      Alcotest.(check int) "no drops" 0 captured.Trace.dropped;
      let att = Profile.attribute captured.Trace.events in
      Alcotest.(check int) "one request span per completion"
        result.Xc_platforms.Closed_loop.completed
        (List.length (Profile.requests att));
      Alcotest.(check bool) "bundles cover everything" true
        (Float.abs (Profile.unattributed_ns att) <= 1e-3);
      let bucket_sum =
        List.fold_left
          (fun acc (r : Profile.attributed_request) ->
            List.fold_left
              (fun acc (_, _, ns) -> acc +. ns)
              (acc +. r.Profile.req_self) r.Profile.req_mech)
          (Profile.unattributed_ns att) (Profile.requests att)
      in
      Alcotest.(check bool) "partition identity on a real trace" true
        (Float.abs (bucket_sum -. Profile.total_self_ns att)
        <= 1e-9 *. Profile.total_self_ns att);
      List.iter
        (fun (r : Profile.attributed_request) ->
          Alcotest.(check bool) "request has an entry bucket" true
            (List.exists
               (fun (c, _, _) -> c = "syscall-entry")
               r.Profile.req_mech);
          (* Deterministic service = the decomposition: nothing left
             over beyond FP residue from the serial layout. *)
          Alcotest.(check bool) "request self is only FP residue" true
            (Float.abs r.Profile.req_self <= 0.5))
        (Profile.requests att))

(* A closed-shape suite spec with [tails = true] runs the recipe's
   bundles, so its p99 tail splits by mechanism — network hops and the
   entry path — instead of one uncovered request-self row. *)
let test_closed_spec_tails () =
  let spec =
    match
      Xc_suite.Suite.parse
        "suite = t\n[experiment c]\nshape = closed\nworkload = nginx\n\
         tails = true\nduration_ms = 10\nwarmup_ms = 1\n"
    with
    | Ok { Xc_suite.Suite.specs = [ spec ]; _ } -> spec
    | Ok _ -> Alcotest.fail "expected one spec"
    | Error e -> Alcotest.fail e
  in
  with_trace (fun () ->
      let _, captured = Trace.capture (fun () -> Xc_suite.Driver.run spec) in
      match Xc_obs.Causal.tail_at ~label:"c" ~pct:99. captured with
      | Error e -> Alcotest.fail e
      | Ok None -> Alcotest.fail "no request spans in the closed trace"
      | Ok (Some t) ->
          List.iter
            (fun cat ->
              Alcotest.(check bool)
                (Printf.sprintf "tail has a %s row" cat)
                true
                (List.exists (fun (c, _, _) -> c = cat) t.Profile.tail_mech))
            [ "net.hop"; "syscall-entry" ];
          Alcotest.(check bool) "request-self is a small remainder" true
            (t.Profile.tail_self_ns < 0.1 *. t.Profile.tail_total_ns))

(* ---------------- the Figure 9 tail shape ---------------- *)

let cluster_tail runtime =
  let config = Config.make runtime in
  let platform = Xc_platforms.Platform.create config in
  (* 1 connection per container: light load, so queueing is negligible
     on both sides and the tail diff isolates the mechanism costs. *)
  let cs =
    {
      (Xc_platforms.Cluster_sim.config_of_platform ~containers:4
         ~connections:1 platform)
      with
      duration_ns = 1e8;
      warmup_ns = 2e7;
    }
  in
  with_trace ~capacity:(1 lsl 18) (fun () ->
      let (), captured =
        Trace.capture (fun () -> ignore (Xc_platforms.Cluster_sim.run cs))
      in
      Alcotest.(check int) "no drops" 0 captured.Trace.dropped;
      let att = Profile.attribute captured.Trace.events in
      Alcotest.(check bool) "bundles cover everything" true
        (Float.abs (Profile.unattributed_ns att) <= 1e-3);
      match Profile.request_totals att with
      | [] -> Alcotest.fail "no request spans in the cluster trace"
      | totals ->
          let cut =
            Histogram.percentile_floor (Histogram.of_samples totals) 99.
          in
          Profile.tail_of ~label:(Config.name config) ~pct:99. ~cut_ns:cut att)

let test_fig9_tail_shape () =
  let docker = cluster_tail Config.Docker in
  let xc = cluster_tail Config.X_container in
  Alcotest.(check bool) "the cut keeps at least one request" true
    (docker.Profile.n_tail >= 1 && xc.Profile.n_tail >= 1);
  let mean t =
    t.Profile.tail_total_ns /. float_of_int (Stdlib.max 1 t.Profile.n_tail)
  in
  Alcotest.(check bool) "X-Container's tail is faster" true
    (mean xc < mean docker);
  let r = Diff.diff_tails ~a:docker ~b:xc in
  (match Diff.dominant_tail r with
  | Some row ->
      Alcotest.(check string)
        "the entry path dominates the p99 delta" "syscall-entry"
        row.Diff.mech;
      Alcotest.(check bool) "docker pays more entry per tail request" true
        (row.Diff.a_mean_ns > row.Diff.b_mean_ns)
  | None -> Alcotest.fail "empty tail diff");
  Alcotest.(check bool) "majority of the absolute delta" true
    (Diff.dominant_tail_share r > 0.5);
  let rendered = Diff.render_tails ~a:docker ~b:xc in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "diff rendering mentions %S" needle)
        true (contains rendered needle))
    [ "tail diff (p99)"; "Docker"; "X-Container";
      "dominant tail delta: syscall-entry" ]

let suites =
  [
    ( "tails.attribution",
      [
        Alcotest.test_case "hand-built forest partition" `Quick
          test_unit_forest;
        Alcotest.test_case "tail cut aggregation" `Quick test_unit_tail_cut;
        Alcotest.test_case "tail rendering" `Quick test_render_tail;
        Alcotest.test_case "truncated capture refused" `Quick
          test_truncated_tail_refused;
        QCheck_alcotest.to_alcotest partition_prop;
        QCheck_alcotest.to_alcotest sweep_paths_prop;
      ] );
    ( "tails.percentile",
      [
        QCheck_alcotest.to_alcotest percentile_prop;
        Alcotest.test_case "constant distributions" `Quick
          test_percentile_single_value;
      ] );
    ( "tails.csv",
      [
        Alcotest.test_case "round-trip" `Quick test_tails_csv_roundtrip;
        Alcotest.test_case "truncation detected, no exceptions" `Quick
          test_tails_csv_truncation;
        QCheck_alcotest.to_alcotest tails_fuzz_prop;
        Alcotest.test_case "of_file errors are Errors" `Quick
          test_of_file_errors;
      ] );
    ( "tails.drivers",
      [
        Alcotest.test_case "closed-loop bundles recover the recipe" `Quick
          test_closed_loop_mechanisms;
        Alcotest.test_case "closed suite spec tails" `Quick
          test_closed_spec_tails;
        Alcotest.test_case "fig9 p99 gap is the entry path" `Quick
          test_fig9_tail_shape;
      ] );
  ]
