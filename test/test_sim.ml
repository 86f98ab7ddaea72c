(* Tests for the discrete-event simulation substrate (xc_sim). *)

open Xc_sim

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Prng ---------------- *)

(* A draw over (nearly) the generator's whole output range. *)
let draw rng = Prng.int rng max_int

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (draw a <> draw b)

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  (* The child stream must not be a shifted copy of the parent stream. *)
  let xs = List.init 10 (fun _ -> draw parent) in
  let ys = List.init 10 (fun _ -> draw child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_mean () =
  let rng = Prng.create 5 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "uniform mean near 0.5" true (mean > 0.48 && mean < 0.52)

let test_exponential_mean () =
  let rng = Prng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean near 5" true (mean > 4.7 && mean < 5.3)

(* Minor-heap words per call of [draw], over [n] calls.  The count
   repeats exactly, unlike host time. *)
let words_per_call n draw =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (draw ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The state lives unboxed, so [int] allocates nothing and [normal]
   only its boxed return: a [float] result crosses the call. *)
let test_prng_alloc () =
  let rng = Prng.create 3 in
  let int_draw () = Prng.int rng 1000 in
  let normal_draw () = Prng.normal rng ~mean:1.0 ~stddev:0.1 in
  let int_words = words_per_call 10_000 int_draw in
  let normal_words = words_per_call 10_000 normal_draw in
  Alcotest.(check bool)
    (Printf.sprintf "int: %.2f words/draw within 0" int_words)
    true (int_words = 0.);
  Alcotest.(check bool)
    (Printf.sprintf "normal: %.2f words/draw within 2" normal_words)
    true (normal_words <= 2.)

let prng_props =
  [
    QCheck.Test.make ~name:"int bounded" ~count:500
      QCheck.(pair small_int (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let rng = Prng.create seed in
        let v = Prng.int rng bound in
        v >= 0 && v < bound);
    QCheck.Test.make ~name:"float bounded" ~count:500 QCheck.small_int
      (fun seed ->
        let rng = Prng.create seed in
        let v = Prng.float rng 10.0 in
        v >= 0. && v < 10.);
  ]

(* ---------------- Heap ---------------- *)

(* Remove and return the minimum as [(key, value)], through the
   allocation-free [top]/[keys]/[drop] trio; [None] when empty. *)
let heap_pop h =
  if Heap.is_empty h then None
  else begin
    let kv = ((Heap.keys h).(0), Heap.top h) in
    Heap.drop h;
    Some kv
  end

let test_heap_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 3.0 "c";
  Heap.push h 1.0 "a";
  Heap.push h 2.0 "b";
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check string) "top" "a" (Heap.top h);
  Alcotest.(check (float 0.)) "min key" 1.0 (Heap.keys h).(0);
  Alcotest.(check int) "top leaves it in place" 3 (Heap.length h);
  Alcotest.(check (option (pair (float 0.) string))) "pop a" (Some (1.0, "a")) (heap_pop h);
  Alcotest.(check (option (pair (float 0.) string))) "pop b" (Some (2.0, "b")) (heap_pop h);
  Alcotest.(check (option (pair (float 0.) string))) "pop c" (Some (3.0, "c")) (heap_pop h);
  Alcotest.(check (option (pair (float 0.) string))) "drained" None (heap_pop h);
  Alcotest.check_raises "top of empty" (Invalid_argument "Heap.top: empty heap")
    (fun () -> ignore (Heap.top h));
  Alcotest.check_raises "drop of empty" (Invalid_argument "Heap.drop: empty heap")
    (fun () -> Heap.drop h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 5.0 v) [ 1; 2; 3; 4; 5 ];
  let popped = List.init 5 (fun _ -> snd (Option.get (heap_pop h))) in
  Alcotest.(check (list int)) "insertion order among ties" [ 1; 2; 3; 4; 5 ] popped

let test_heap_grow () =
  let h = Heap.create ~capacity:2 () in
  for i = 999 downto 0 do
    Heap.push h (float_of_int i) i
  done;
  Alcotest.(check int) "all inserted" 1000 (Heap.length h);
  let first = snd (Option.get (heap_pop h)) in
  Alcotest.(check int) "min first" 0 first

(* Regression: the seed heap initialised its array with [Obj.magic 0]
   and [grow] read [data.(0)] before any push; a heap created at
   capacity 1 and grown many times must stay well-formed. *)
let test_heap_capacity_one_grow_drain () =
  let h = Heap.create ~capacity:1 () in
  for i = 99 downto 0 do
    Heap.push h (float_of_int i) i
  done;
  Alcotest.(check int) "all inserted" 100 (Heap.length h);
  let drained = ref [] in
  let rec drain () =
    match heap_pop h with
    | Some (k, v) ->
        drained := (k, v) :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (pair (float 0.) int)))
    "sorted drain"
    (List.init 100 (fun i -> (float_of_int i, i)))
    (List.rev !drained);
  Alcotest.(check bool) "empty after drain" true (Heap.is_empty h)

let heap_props =
  [
    QCheck.Test.make ~name:"pop order is sorted" ~count:200
      QCheck.(list (float_bound_inclusive 1000.))
      (fun keys ->
        let h = Heap.create () in
        List.iteri (fun i k -> Heap.push h k i) keys;
        let out = Heap.to_sorted_list h in
        let ks = List.map fst out in
        List.sort compare ks = ks && List.length out = List.length keys);
    (* Ops: [Some k] pushes key [k] (drawn from a tiny pool so ties are
       frequent), [None] pops.  The heap must agree at every pop with a
       stable-insertion reference list — non-decreasing keys AND FIFO
       among equal keys, the tie-break Engine correctness depends on —
       and [to_sorted_list] must agree with the leftover reference. *)
    QCheck.Test.make ~name:"interleaved push/pop matches stable reference"
      ~count:300
      QCheck.(list (option (int_range 0 5)))
      (fun ops ->
        let h = Heap.create ~capacity:1 () in
        let reference = ref [] in
        let seq = ref 0 in
        let ok = ref true in
        List.iter
          (function
            | Some k ->
                let key = float_of_int k in
                Heap.push h key !seq;
                let rec insert = function
                  | (k', s') :: rest when k' <= key -> (k', s') :: insert rest
                  | rest -> (key, !seq) :: rest
                in
                reference := insert !reference;
                incr seq
            | None -> (
                match (heap_pop h, !reference) with
                | None, [] -> ()
                | Some (k, v), (k', s') :: rest when k = k' && v = s' ->
                    reference := rest
                | _ -> ok := false))
          ops;
        !ok && Heap.to_sorted_list h = !reference);
  ]

(* ---------------- Histogram ---------------- *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.percentile h 50. in
  let p99 = Histogram.percentile h 99. in
  Alcotest.(check bool) "p50 near 500" true (p50 > 450. && p50 < 550.);
  Alcotest.(check bool) "p99 near 990" true (p99 > 930. && p99 < 1050.)

let test_histogram_empty () =
  let h = Histogram.create () in
  check_float "empty percentile" 0. (Histogram.percentile h 99.)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 10.;
  Histogram.add b 1000.;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Histogram.count m)

let test_histogram_merge_disjoint () =
  (* Two clusters five decades apart: the merged percentiles must land
     in the right cluster, and merging must not disturb the inputs. *)
  let a = Histogram.create () and b = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.add a 10.
  done;
  for _ = 1 to 100 do
    Histogram.add b 1e6
  done;
  let m = Histogram.merge a b in
  Alcotest.(check int) "count" 200 (Histogram.count m);
  Alcotest.(check bool) "p25 in the low cluster" true
    (Histogram.percentile m 25. < 100.);
  Alcotest.(check bool) "p75 in the high cluster" true
    (Histogram.percentile m 75. > 1e5);
  check_float "mean between clusters" ((100. *. 10. +. 100. *. 1e6) /. 200.)
    (Histogram.mean m);
  Alcotest.(check int) "left input untouched" 100 (Histogram.count a);
  Alcotest.(check int) "right input untouched" 100 (Histogram.count b)

let test_histogram_percentile_edges () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10.; 100.; 1000. ];
  (* p=0 clamps the rank to the first sample, p=100 to the last; both
     are representative values, so same ~2% bucket precision. *)
  Alcotest.(check bool) "p=0 lands on the smallest sample" true
    (Float.abs (Histogram.percentile h 0. -. 10.) /. 10. < 0.04);
  Alcotest.(check bool) "p=100 lands on the largest sample" true
    (Float.abs (Histogram.percentile h 100. -. 1000.) /. 1000. < 0.04);
  Alcotest.(check bool) "p=100 bounds every lower percentile" true
    (Histogram.percentile h 99.9 <= Histogram.percentile h 100.)

let test_histogram_top_power_clamp () =
  (* Values at/above 2^48 (~2.8e14 ns, the histogram's range ceiling)
     saturate into the top bucket instead of indexing out of range. *)
  let top = Float.pow 2. 48. in
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ top; 1e15; 1e18 ];
  Alcotest.(check int) "clamped adds counted" 3 (Histogram.count h);
  let p50 = Histogram.percentile h 50. in
  Alcotest.(check bool) "representative stays below the ceiling" true
    (p50 < top && p50 > top /. 2.);
  (* The true values still feed the mean (sum is exact). *)
  check_float "mean exact" ((top +. 1e15 +. 1e18) /. 3.) (Histogram.mean h)

let test_histogram_merge_after_clamp () =
  (* Merging a histogram holding clamped (>= 2^48) samples with an
     in-range one must keep both populations addressable. *)
  let a = Histogram.create () and b = Histogram.create () in
  for _ = 1 to 10 do
    Histogram.add a 1e20
  done;
  for _ = 1 to 10 do
    Histogram.add b 100.
  done;
  let m = Histogram.merge a b in
  Alcotest.(check int) "count" 20 (Histogram.count m);
  Alcotest.(check bool) "low half intact" true (Histogram.percentile m 25. < 1e3);
  Alcotest.(check bool) "clamped half in the top bucket" true
    (Histogram.percentile m 75. > Float.pow 2. 47.);
  Alcotest.(check bool) "p100 still the top bucket, not out of range" true
    (Histogram.percentile m 100. < Float.pow 2. 48.)

let histogram_props =
  [
    QCheck.Test.make ~name:"percentile monotone in p" ~count:100
      QCheck.(list_of_size Gen.(int_range 1 200) (float_bound_inclusive 1e6))
      (fun xs ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) xs;
        let ps = [ 10.; 25.; 50.; 75.; 90.; 99. ] in
        let vs = List.map (Histogram.percentile h) ps in
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b && mono rest
          | _ -> true
        in
        mono vs);
    QCheck.Test.make ~name:"single sample ~2% precision" ~count:200
      QCheck.(float_range 1.0 1e9)
      (fun x ->
        let h = Histogram.create () in
        Histogram.add h x;
        let v = Histogram.percentile h 50. in
        Float.abs (v -. x) /. x < 0.04);
  ]

(* ---------------- Metrics ---------------- *)

(* Counters of the telemetry registry: a key's increments sum, and the
   final totals come back from the capture sorted by key. *)
let test_metrics_counters () =
  Metrics.enable ~interval_ns:Metrics.default_interval_ns
    ~retention:Metrics.default_retention ();
  Fun.protect ~finally:Metrics.disable (fun () ->
      let (), tel =
        Metrics.capture (fun () ->
            Metrics.counter_incr ~cat:"os" ~name:"syscalls";
            Metrics.counter_incr ~cat:"os" ~name:"syscalls";
            Metrics.counter_add ~cat:"net" ~name:"bytes" 2.5)
      in
      Alcotest.(check (list (pair string (float 0.))))
        "totals sorted by key"
        [ ("net/bytes", 2.5); ("os/syscalls", 2.) ]
        tel.Metrics.counters)

(* ---------------- Table ---------------- *)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ Table.Text "x"; Table.int 1 ];
  Table.add_row t [ Table.Text "longer"; Table.num Table.Ratio 1.3 ];
  Alcotest.(check string) "aligned"
    "name    value\n-------------\nx           1\nlonger  1.30x\n"
    (Table.render t)

let test_table_wrong_row () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "row mismatch" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ Table.Text "1"; Table.Text "2" ])

let test_table_csv () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left); ("c", Table.Right) ] in
  Table.add_row t
    [
      Table.Text "x,y";
      Table.Text "plain";
      Table.num ~rest:" (92.2% manual)" (Table.Percent 1) 0.446;
    ];
  Table.add_row t [ Table.Text "say \"hi\""; Table.Text "two\nlines"; Table.int 7 ];
  Alcotest.(check string) "csv escape, compound cell's leading number"
    "a,b,c\n\"x,y\",plain,44.6\n\"say \"\"hi\"\"\",\"two\nlines\",7\n"
    (Table.to_csv t)

(* A cell's text: a one-column table with an empty header renders the
   cell alone on its third line. *)
let cell_text cell =
  let t = Table.create [ ("", Table.Left) ] in
  Table.add_row t [ cell ];
  List.nth (String.split_on_char '\n' (Table.render t)) 2

let test_table_fmt () =
  Alcotest.(check string) "ratio" "2.13x" (cell_text (Table.num Table.Ratio 2.131));
  Alcotest.(check string) "si K" "12.3K" (Table.fmt_si 12_345.);
  Alcotest.(check string) "si M" "3.40M" (Table.fmt_si 3_400_000.);
  Alcotest.(check string) "si plain" "45" (Table.fmt_si 45.)

(* Every format against its layout spelt out as a literal format
   string, and the number its CSV field carries. *)
let table_formats =
  let scaled per digits unit = Table.Scaled { per; digits; unit } in
  [
    (scaled 1e3 1 "us", (fun v -> Printf.sprintf "%.1fus" (v /. 1e3)), fun v -> v /. 1e3);
    (scaled 1e3 0 "us", (fun v -> Printf.sprintf "%.0fus" (v /. 1e3)), fun v -> v /. 1e3);
    (scaled 1e6 0 "ms", (fun v -> Printf.sprintf "%.0fms" (v /. 1e6)), fun v -> v /. 1e6);
    (scaled 1e6 1 "ms", (fun v -> Printf.sprintf "%.1fms" (v /. 1e6)), fun v -> v /. 1e6);
    (scaled 1e9 1 "s", (fun v -> Printf.sprintf "%.1fs" (v /. 1e9)), fun v -> v /. 1e9);
    (scaled 1. 0 "", (fun v -> Printf.sprintf "%.0f" v), Fun.id);
    (scaled 1. 2 "", (fun v -> Printf.sprintf "%.2f" v), Fun.id);
    (scaled 1. 4 "", (fun v -> Printf.sprintf "%.4f" v), Fun.id);
    (scaled 1. 0 "MB", (fun v -> Printf.sprintf "%.0fMB" v), Fun.id);
    (Table.Ratio, (fun v -> Printf.sprintf "%.2fx" v), Fun.id);
    (Table.Si, Table.fmt_si, Fun.id);
    (Table.Percent 0, (fun v -> Printf.sprintf "%.0f%%" (100. *. v)), fun v -> 100. *. v);
    (Table.Percent 1, (fun v -> Printf.sprintf "%.1f%%" (100. *. v)), fun v -> 100. *. v);
    (Table.Delta 1, (fun v -> Printf.sprintf "%+.1f%%" (v *. 100.)), fun v -> v *. 100.);
  ]

let table_cell_views =
  let value =
    QCheck.Gen.(
      frequency
        [
          (4, map Int64.float_of_bits ui64);
          (2, float);
          (2, map float_of_int (int_range (-100_000) 10_000_000));
          (1, map (fun m -> Float.ldexp (float_of_int m) (-1074)) (int_range (-4096) 4096));
          (1, oneofl [ nan; infinity; neg_infinity; 0.; -0.; 5e-324; max_float ]);
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun (v, i, rest) -> Printf.sprintf "%h, format %d, rest %S" v i rest)
      QCheck.Gen.(
        triple value
          (int_bound (List.length table_formats - 1))
          (oneofl [ ""; " (92.2% manual)"; "/25 (36%)" ]))
  in
  QCheck.Test.make ~name:"cells render as before, CSV is exact" ~count:2000 arb
    (fun (v, i, rest) ->
      let format, before, scaled = List.nth table_formats i in
      let cell = Table.num ~rest format v in
      let t = Table.create [ ("", Table.Left) ] in
      Table.add_row t [ cell ];
      (* The CSV is the empty header's line, then the field's. *)
      let field = List.nth (String.split_on_char '\n' (Table.to_csv t)) 1 in
      let back = float_of_string field and want = scaled v in
      cell_text cell = before v ^ rest
      && ((Float.is_nan back && Float.is_nan want)
         || Int64.equal (Int64.bits_of_float back) (Int64.bits_of_float want)))

(* ---------------- Engine ---------------- *)

(* The closure engine is the differential tests' reference
   (test/ref_engine.ml); these tests pin its order.  [Engine] is the
   library's per-domain event counter. *)

let test_engine_ordering () =
  let e = Ref_engine.create () in
  let log = ref [] in
  Ref_engine.schedule e 30. (fun _ -> log := 3 :: !log);
  Ref_engine.schedule e 10. (fun _ -> log := 1 :: !log);
  Ref_engine.schedule e 20. (fun _ -> log := 2 :: !log);
  Ref_engine.run e;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 30. (Ref_engine.now e)

let test_engine_tie_order () =
  let e = Ref_engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Ref_engine.schedule e 10. (fun _ -> log := i :: !log)
  done;
  Ref_engine.run e;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Ref_engine.create () in
  let count = ref 0 in
  let rec tick eng =
    incr count;
    Ref_engine.schedule eng (Ref_engine.now eng +. 10.) tick
  in
  Ref_engine.schedule e 0. tick;
  Ref_engine.run ~until:95. e;
  Alcotest.(check int) "ten ticks by t=95" 10 !count;
  check_float "clock parked at until" 95. (Ref_engine.now e)

let test_engine_past_raises () =
  let e = Ref_engine.create () in
  Ref_engine.schedule e 10. (fun eng ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: event in the past")
        (fun () -> Ref_engine.schedule eng 5. (fun _ -> ())));
  Ref_engine.run e

let test_engine_cascade () =
  let e = Ref_engine.create () in
  let log = ref [] in
  Ref_engine.schedule e 10. (fun eng ->
      log := "a" :: !log;
      Ref_engine.schedule eng (Ref_engine.now eng +. 5.) (fun _ -> log := "b" :: !log));
  Ref_engine.run e;
  Alcotest.(check (list string)) "cascade" [ "a"; "b" ] (List.rev !log);
  check_float "final clock" 15. (Ref_engine.now e)

(* The same-timestamp fast lane: events scheduled at exactly [now] must
   still run after events already queued for that timestamp (they were
   scheduled earlier) and in FIFO order among themselves. *)
let test_engine_now_fast_lane () =
  let e = Ref_engine.create () in
  let log = ref [] in
  Ref_engine.schedule e 10. (fun eng ->
      log := "first" :: !log;
      Ref_engine.schedule eng 10. (fun _ -> log := "lane1" :: !log);
      Ref_engine.schedule eng 10. (fun eng ->
          log := "lane2" :: !log;
          Ref_engine.schedule eng (Ref_engine.now eng) (fun _ -> log := "lane3" :: !log)));
  Ref_engine.schedule e 10. (fun _ -> log := "second" :: !log);
  Ref_engine.run e;
  Alcotest.(check (list string))
    "heap-before-lane, lane FIFO"
    [ "first"; "second"; "lane1"; "lane2"; "lane3" ]
    (List.rev !log);
  check_float "clock" 10. (Ref_engine.now e)

let test_engine_events_executed () =
  let e = Ref_engine.create () in
  Alcotest.(check int) "fresh" 0 (Ref_engine.events_executed e);
  Ref_engine.schedule e 5. (fun eng ->
      Ref_engine.schedule eng (Ref_engine.now eng) (fun _ -> ());
      Ref_engine.schedule eng (Ref_engine.now eng +. 1.) (fun _ -> ()));
  Alcotest.(check int) "pending counts lane and heap" 1 (Ref_engine.pending e);
  Ref_engine.run e;
  Alcotest.(check int) "three executed" 3 (Ref_engine.events_executed e);
  Alcotest.(check int) "nothing pending" 0 (Ref_engine.pending e)

let test_engine_domain_events () =
  let before = Engine.domain_events () in
  let e = Ref_engine.create () in
  for i = 1 to 7 do
    Ref_engine.schedule e (float_of_int i) (fun _ -> ())
  done;
  Ref_engine.run e;
  Alcotest.(check int) "domain counter advanced by 7" (before + 7)
    (Engine.domain_events ());
  (* Analytic models and the engine-less hedging simulator dispatch no
     engine events, so they must not move the counter ... *)
  let unchanged what f =
    let before = Engine.domain_events () in
    ignore (Sys.opaque_identity (f ()));
    Alcotest.(check int) (what ^ " credits nothing") before
      (Engine.domain_events ())
  in
  unchanged "Migration.migrate" (fun () ->
      Xc_hypervisor.Migration.migrate
        (Xc_hypervisor.Migration.default_params ~memory_mb:512));
  unchanged "Security.vulnerability_exposure" (fun () ->
      Xcontainers.Security.vulnerability_exposure
        (Xcontainers.Security.profile_of Xc_platforms.Config.X_container));
  unchanged "Oracle.closed_loop_mva" (fun () ->
      Xc_lb.Oracle.closed_loop_mva ~servers:4 ~clients:64 ~service_ns:1e5
        ~think_ns:0.);
  unchanged "Hedge.run" (fun () ->
      let r =
        Xc_lb.Hedge.run
          (Xc_lb.Hedge.config_for_utilization ~duration_ns:2e6
             ~utilization:0.5 ())
      in
      Alcotest.(check bool) "hedge run completed requests" true
        (r.Xc_lb.Hedge.completed > 0));
  List.iter
    (fun p -> unchanged "Density.run" (fun () -> Xc_apps.Density.run p))
    Xc_apps.Density.all_policies;
  (* The station kernel credits every dispatch, as the engine-driven
     loops it replaced did (their counts for this config, pinned). *)
  let credits what expected f =
    let before = Engine.domain_events () in
    ignore (Sys.opaque_identity (f ()));
    Alcotest.(check int) (what ^ " credits its dispatches") expected
      (Engine.domain_events () - before)
  in
  let module CL = Xc_platforms.Closed_loop in
  let server = { CL.units = 2; base_ns = 20_000.; stddev = 0.1; floor = 0.5 } in
  credits "Closed_loop.run" 1098 (fun () ->
      CL.run
        { CL.default_config with connections = 8; duration_ns = 1e7; warmup_ns = 1e6 }
        server);
  credits "Open_loop.run" 1113 (fun () ->
      Xc_platforms.Open_loop.run
        (Xc_platforms.Open_loop.config ~duration_ns:1e7 ~warmup_ns:1e6
           ~rate_rps:50_000. ())
        server);
  (* ... while the ISA machine credits exactly the steps it retired. *)
  let prog = Xc_isa.Builder.build [ (Xc_isa.Builder.Glibc_small, 0) ] in
  let m = Xc_isa.Machine.create prog.image ~entry:prog.entry in
  let before = Engine.domain_events () in
  ignore (Xc_isa.Machine.run m);
  Alcotest.(check bool) "machine retired instructions" true
    (Xc_isa.Machine.steps m > 0);
  Alcotest.(check int) "machine credits its retired steps"
    (before + Xc_isa.Machine.steps m)
    (Engine.domain_events ())

(* Minor-heap words allocated per engine event while [f] runs.  Unlike
   host time the count repeats exactly, so a budget on it gates driver
   allocation deterministically.  The budgets sit at the measured value
   rounded up to the next whole word. *)
let check_words_budget ~budget f =
  let e0 = Engine.domain_events () and w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let w =
    (Gc.minor_words () -. w0) /. float_of_int (Engine.domain_events () - e0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words/event within %d" w budget)
    true
    (w <= float_of_int budget)

(* A bare chain, each event scheduling the next: what is left per event
   is the boxed sum of the next timestamp and the boxed clock [advance]
   stores.  The heap's minimum is read in place, never popped into an
   option.  The first event goes through the heap before measuring,
   since the heap's first push allocates its payload array. *)
let test_engine_words () =
  let e = Ref_engine.create () in
  let rec tick eng =
    if Ref_engine.now eng < 1e6 then Ref_engine.schedule eng (Ref_engine.now eng +. 10.) tick
  in
  Ref_engine.schedule e 10. tick;
  check_words_budget ~budget:4 (fun () -> Ref_engine.run e)

let test_engine_until_fast_lane () =
  (* A zero-delay event scheduled at the horizon must still run when
     the horizon is inclusive. *)
  let e = Ref_engine.create () in
  let log = ref [] in
  Ref_engine.schedule e 10. (fun eng ->
      log := 1 :: !log;
      Ref_engine.schedule eng (Ref_engine.now eng) (fun _ -> log := 2 :: !log));
  Ref_engine.run ~until:10. e;
  Alcotest.(check (list int)) "both ran" [ 1; 2 ] (List.rev !log);
  check_float "clock at until" 10. (Ref_engine.now e)

let engine_props =
  [
    QCheck.Test.make ~name:"events execute in timestamp order" ~count:200
      QCheck.(list_of_size Gen.(int_range 0 50) (float_bound_inclusive 1e6))
      (fun times ->
        let e = Ref_engine.create () in
        let log = ref [] in
        List.iter
          (fun at -> Ref_engine.schedule e at (fun eng -> log := Ref_engine.now eng :: !log))
          times;
        Ref_engine.run e;
        let executed = List.rev !log in
        executed = List.sort compare times);
  ]

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let suites =
  [
    ( "sim.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "split" `Quick test_prng_split_independent;
        Alcotest.test_case "uniform mean" `Quick test_prng_mean;
        Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        Alcotest.test_case "words per draw" `Quick test_prng_alloc;
      ]
      @ qsuite prng_props );
    ( "sim.heap",
      [
        Alcotest.test_case "basic" `Quick test_heap_basic;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "grow" `Quick test_heap_grow;
        Alcotest.test_case "capacity-1 grow/drain" `Quick
          test_heap_capacity_one_grow_drain;
      ]
      @ qsuite heap_props );
    ( "sim.histogram",
      [
        Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "empty" `Quick test_histogram_empty;
        Alcotest.test_case "percentile edges" `Quick
          test_histogram_percentile_edges;
        Alcotest.test_case "top-power clamp" `Quick
          test_histogram_top_power_clamp;
        Alcotest.test_case "merge after clamp" `Quick
          test_histogram_merge_after_clamp;
        Alcotest.test_case "merge" `Quick test_histogram_merge;
        Alcotest.test_case "merge disjoint ranges" `Quick
          test_histogram_merge_disjoint;
      ]
      @ qsuite histogram_props );
    ("sim.metrics", [ Alcotest.test_case "counters" `Quick test_metrics_counters ]);
    ( "sim.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "wrong row" `Quick test_table_wrong_row;
        Alcotest.test_case "csv" `Quick test_table_csv;
        Alcotest.test_case "formatters" `Quick test_table_fmt;
      ]
      @ qsuite [ table_cell_views ] );
    ( "sim.engine",
      [
        Alcotest.test_case "ordering" `Quick test_engine_ordering;
        Alcotest.test_case "tie order" `Quick test_engine_tie_order;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "past raises" `Quick test_engine_past_raises;
        Alcotest.test_case "cascade" `Quick test_engine_cascade;
        Alcotest.test_case "now fast lane" `Quick test_engine_now_fast_lane;
        Alcotest.test_case "events executed" `Quick test_engine_events_executed;
        Alcotest.test_case "domain events" `Quick test_engine_domain_events;
        Alcotest.test_case "until fast lane" `Quick test_engine_until_fast_lane;
        Alcotest.test_case "words per event" `Quick test_engine_words;
      ]
      @ qsuite engine_props );
  ]
