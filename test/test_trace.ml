(* Tests for the xc_trace substrate: recorder semantics (cursor
   timeline, ring bound, capture nesting), the fixed-stride sampler,
   the deterministic join of per-cell captures, both exporter
   round-trips, the diff math, flamegraph folding and per-request
   attribution — and the Figure 4 shape the tracer exists to explain:
   diffing a Docker syscall loop against an X-Container one must blame
   the syscall-entry path. *)

module Trace = Xc_trace.Trace
module Export = Xc_trace.Export
module Diff = Xc_trace.Diff
module Profile = Xc_trace.Profile
module Config = Xc_platforms.Config

(* Enable tracing for the duration of [f], then restore the disabled
   state, so suites that run after us see a quiet tracer.  Capacity
   and sampling stride always default explicitly: a previous test's
   tiny ring or stride must not leak forward. *)
let with_trace ?(capacity = Trace.default_capacity) ?(sample = 1) f =
  Trace.enable ~capacity ~sample ();
  Fun.protect ~finally:Trace.disable f

(* [f]'s events, captured. *)
let recorded f = snd (Trace.capture f)

let ev = Trace_rows.testable

(* Events after a serialise/parse round trip: same fields, timestamps
   equal to within the fixed-precision float formatting. *)
let roughly_equal a b =
  Trace.kind a = Trace.kind b
  && Trace.cat a = Trace.cat b
  && Trace.name a = Trace.name b
  && Float.abs (Trace.ts a -. Trace.ts b) < 1e-3
  && Float.abs (Trace.dur a -. Trace.dur b) < 1e-3
  && Float.abs (Trace.value a -. Trace.value b) < 1e-3

let contains s needle =
  let n = String.length needle and l = String.length s in
  let rec scan i = i + n <= l && (String.sub s i n = needle || scan (i + 1)) in
  scan 0

(* ---------------- recorder ---------------- *)

let test_disabled_noop () =
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  (* A live capture sees nothing the emitters are offered while the
     switch is off. *)
  let c =
    with_trace (fun () ->
        recorded (fun () ->
            Trace.disable ();
            Trace.span ~cat:"c" ~name:"n" 5.;
            Trace.span_at ~id:1 ~cat:"c" ~name:"n" [| 1.; 2. |];
            Trace.instant ~cat:"c" ~name:"n" ();
            Trace.counter ~cat:"c" ~name:"n" 1.;
            Trace.enable ()))
  in
  Alcotest.(check (list ev)) "nothing recorded" [] (Trace_rows.rows c.Trace.events);
  Alcotest.(check (float 0.)) "cursor untouched" 0. c.Trace.cursor

let test_cursor_timeline () =
  with_trace (fun () ->
      let c =
        recorded (fun () ->
            Trace.span ~cat:"c" ~name:"a" 10.;
            Trace.instant ~cat:"c" ~name:"tick" ();
            Trace.span ~cat:"c" ~name:"b" 5.;
            Trace.span_at ~id:0 ~cat:"c" ~name:"pinned" [| 99.; 7. |];
            Trace.span ~cat:"c" ~name:"d" 1.)
      in
      match c.Trace.events with
      | [ a; tick; b; pinned; d ] ->
          Alcotest.(check (float 0.)) "a at origin" 0. (Trace.ts a);
          Alcotest.(check (float 0.)) "instant at cursor" 10. (Trace.ts tick);
          Alcotest.(check (float 0.)) "b after a" 10. (Trace.ts b);
          Alcotest.(check (float 0.)) "explicit ~at honoured" 99. (Trace.ts pinned);
          (* span_at must not move the cursor: d continues after b. *)
          Alcotest.(check (float 0.)) "cursor unaffected by ~at" 15. (Trace.ts d);
          (* A new capture starts a fresh cursor. *)
          let fresh = recorded (fun () -> Trace.span ~cat:"c" ~name:"fresh" 1.) in
          Alcotest.(check (float 0.)) "cursor reset by a new capture" 0.
            (Trace.ts (List.hd fresh.Trace.events))
      | evs -> Alcotest.failf "expected 5 events, got %d" (List.length evs))

let names (c : Trace.captured) = List.map Trace.name c.events

let test_ring_bound () =
  with_trace ~capacity:4 (fun () ->
      let c =
        recorded (fun () ->
            for i = 1 to 10 do
              Trace.span ~cat:"c" ~name:(string_of_int i) 1.
            done)
      in
      Alcotest.(check int) "dropped counts overwrites" 6 c.Trace.dropped;
      Alcotest.(check (list string))
        "oldest overwritten, order kept" [ "7"; "8"; "9"; "10" ] (names c);
      let again = recorded (fun () -> Trace.span ~cat:"c" ~name:"x" 1.) in
      Alcotest.(check int) "a new capture starts with no drops" 0 again.Trace.dropped)

(* Regression: shrinking (or growing) the ring under a live recorder
   used to discard its contents without bumping [dropped]. *)
let test_capacity_change_drops () =
  with_trace ~capacity:8 (fun () ->
      let c =
        recorded (fun () ->
            for i = 1 to 5 do
              Trace.span ~cat:"c" ~name:(string_of_int i) 1.
            done;
            Trace.enable ~capacity:4 ();
            Trace.span ~cat:"c" ~name:"after" 1.)
      in
      Alcotest.(check int) "discarded live ring counted as dropped" 5 c.Trace.dropped;
      Alcotest.(check (list string)) "fresh ring has only the new event"
        [ "after" ] (names c))

let test_capture_nesting () =
  with_trace (fun () ->
      let outer =
        recorded (fun () ->
            Trace.span ~cat:"outer" ~name:"before" 3.;
            let v, inner =
              Trace.capture (fun () ->
                  Trace.span ~cat:"inner" ~name:"x" 1.;
                  Trace.span ~cat:"inner" ~name:"y" 2.;
                  42)
            in
            Alcotest.(check int) "result threaded" 42 v;
            Alcotest.(check int) "no drops" 0 inner.Trace.dropped;
            Alcotest.(check (list string)) "inner events isolated" [ "x"; "y" ] (names inner);
            (* Inner spans start on their own cursor. *)
            Alcotest.(check (float 0.)) "inner cursor fresh" 0.
              (Trace.ts (List.hd inner.Trace.events));
            (* The outer recorder state survives: cursor continues at 3. *)
            Trace.span ~cat:"outer" ~name:"after" 1.)
      in
      match outer.Trace.events with
      | [ before; after ] ->
          Alcotest.(check string) "outer kept" "before" (Trace.name before);
          Alcotest.(check (float 0.)) "outer cursor restored" 3. (Trace.ts after)
      | evs -> Alcotest.failf "expected 2 outer events, got %d" (List.length evs))

exception Boom

let test_capture_exception () =
  with_trace (fun () ->
      let outer =
        recorded (fun () ->
            Trace.span ~cat:"outer" ~name:"kept" 2.;
            try
              ignore
                (Trace.capture (fun () ->
                     Trace.span ~cat:"inner" ~name:"lost" 1.;
                     raise Boom))
            with Boom -> ())
      in
      Alcotest.(check (list string)) "outer intact, inner discarded" [ "kept" ] (names outer))

(* ---------------- the sampler ---------------- *)

(* Per-category span totals of a trace, rescaled by [streams], read off
   the A side of a diff against nothing. *)
let cat_totals ?(streams = []) evs =
  List.map
    (fun (r : Diff.row) -> (r.Diff.cat, r.Diff.a_ns))
    (Diff.diff ~a_streams:streams ~a:evs ~b:[] ()).Diff.rows

let test_sampler_stride () =
  with_trace ~sample:4 (fun () ->
      let { Trace.streams; events = evs; _ } =
        recorded (fun () ->
            for _ = 1 to 10 do
              Trace.span ~cat:"c" ~name:"x" 10.
            done)
      in
      (* Rotating slot: window 0 keeps index 0, window 1 keeps index 5;
         window 2's slot (index 10) is past the end of the stream. *)
      Alcotest.(check int) "one event per full window" 2 (List.length evs);
      (* Skipped events still advance the cursor: kept timestamps match
         the unsampled timeline. *)
      Alcotest.(check (list (float 0.)))
        "timestamps as if unsampled" [ 0.; 50. ]
        (List.map Trace.ts evs);
      match streams with
      | [ s ] ->
          Alcotest.(check string) "stream cat" "c" s.Trace.Stream.cat;
          Alcotest.(check int) "seen" 10 s.Trace.Stream.seen;
          Alcotest.(check int) "kept" 2 s.Trace.Stream.kept;
          Alcotest.(check int) "skipped" 8 (Trace.Stream.skipped s);
          (* Exact rescale: 2 kept spans of 10ns × 10/2 = the full 100. *)
          let totals = cat_totals ~streams evs in
          Alcotest.(check (float 1e-6)) "rescaled total exact" 100.
            (List.assoc "c" totals)
      | ss -> Alcotest.failf "expected 1 stream, got %d" (List.length ss))

let test_sampler_per_stream () =
  with_trace ~sample:2 (fun () ->
      let { Trace.streams; _ } =
        recorded (fun () ->
            for _ = 1 to 3 do
              Trace.span ~cat:"a" ~name:"x" 1.;
              Trace.span ~cat:"b" ~name:"y" 1.
            done)
      in
      Alcotest.(check int) "two independent streams" 2 (List.length streams);
      List.iter
        (fun (s : Trace.Stream.t) ->
          Alcotest.(check int) "each saw 3" 3 s.seen;
          (* Index 0 kept; window 1's rotated slot is index 3, past the
             end — the stream's first event is always kept though. *)
          Alcotest.(check int) "each kept its first" 1 s.kept)
        streams)

let test_sampler_phase_fair () =
  (* A stream whose durations repeat with a period dividing the stride
     (here 2 | 4) must not be sampled at a single phase: the rotating
     slot visits both phases, so the rescaled total is exact even
     though the stream is heterogeneous. *)
  with_trace ~sample:4 (fun () ->
      let { Trace.streams; events = evs; _ } =
        recorded (fun () ->
            for _ = 1 to 16 do
              Trace.span ~cat:"c" ~name:"x" 100.;
              Trace.span ~cat:"c" ~name:"x" 300.
            done)
      in
      let durs = List.map Trace.dur evs in
      Alcotest.(check bool) "both phases kept" true
        (List.mem 100. durs && List.mem 300. durs);
      Alcotest.(check (float 1e-6)) "periodic stream rescales exactly"
        (16. *. (100. +. 300.))
        (List.assoc "c" (cat_totals ~streams evs)))

(* ---------------- parallel merge determinism ---------------- *)

(* Six cells on the pool, each capturing its own trace, joined in cell
   order by [Trace.concat] — the runner's path ([Xc_suite.Run]). *)
let traced_parallel_run ?sample jobs =
  with_trace ?sample (fun () ->
      let cells =
        Xc_sim.Parallel.run_sharded ~jobs
          (List.init 6 (fun i ->
               Xc_sim.Parallel.Shard.thunk (fun () ->
                   Trace.capture (fun () ->
                       Trace.span ~cat:"work" ~name:(string_of_int i)
                         (float_of_int (i + 1));
                       Trace.instant ~cat:"tick" ~name:(string_of_int i) ();
                       i * i))))
      in
      let all = Trace.concat (List.map snd cells) in
      (List.map fst cells, all.Trace.streams, Trace_rows.rows all.Trace.events))

let test_parallel_merge_deterministic () =
  let v1, _, t1 = traced_parallel_run 1 in
  let v4, _, t4 = traced_parallel_run 4 in
  Alcotest.(check (list int)) "values agree" v1 v4;
  Alcotest.(check (list ev)) "traces byte-identical across jobs" t1 t4;
  (* Each cell records on a fresh cursor and concat rebases cell k by
     the spans of cells 0..k-1: span i starts at 1 + 2 + ... + i. *)
  Alcotest.(check (list (float 0.)))
    "rebased span starts" [ 0.; 1.; 3.; 6.; 10.; 15. ]
    (List.filter_map
       (fun (kind, _, _, ts, _, _) -> if kind = Trace.Span then Some ts else None)
       t4)

let test_parallel_sampled_deterministic () =
  (* Sampler state is per-capture, so sampled runs keep the
     byte-identical-at-any-jobs property, streams included. *)
  let v1, s1, t1 = traced_parallel_run ~sample:3 1 in
  let v4, s4, t4 = traced_parallel_run ~sample:3 4 in
  Alcotest.(check (list int)) "values agree" v1 v4;
  Alcotest.(check (list ev)) "sampled traces identical across jobs" t1 t4;
  Alcotest.(check bool) "stream accounting identical across jobs" true (s1 = s4);
  Alcotest.(check bool) "sampling kept something" true (s1 <> []);
  (* Concat's rebasing keeps the joined timeline monotone. *)
  let ts = List.map (fun (_, _, _, ts, _, _) -> ts) t4 in
  Alcotest.(check bool) "monotone timeline" true (List.sort compare ts = ts)

(* ---------------- exporters ---------------- *)

let sample_events () =
  with_trace (fun () ->
      (recorded (fun () ->
           Trace.span ~cat:"syscall-entry" ~name:"syscall-trap+kpti" 475.;
           Trace.instant ~cat:"mode-switch" ~name:"guest-user->guest-kernel" ();
           Trace.counter ~cat:"abom" ~name:"cmpxchg" 17.;
           Trace.span_at ~id:7 ~cat:"request" ~name:"closed-loop" [| 1234.5; 250_000. |]))
        .Trace.events)

let check_round_trip fmt_name serialize =
  let evs = sample_events () in
  let text = serialize [ ("track-a", evs) ] in
  match Export.events_of_string text with
  | Error e -> Alcotest.failf "%s parse: %s" fmt_name e
  | Ok parsed ->
      Alcotest.(check int)
        (fmt_name ^ " event count")
        (List.length evs) (List.length parsed);
      List.iter2
        (fun a b ->
          if not (roughly_equal a b) then
            Alcotest.failf "%s round trip: %s/%s mismatch" fmt_name (Trace.cat a)
              (Trace.name a))
        evs parsed

let test_chrome_round_trip () = check_round_trip "chrome" (Export.to_chrome ?dropped:None)
let test_csv_round_trip () = check_round_trip "csv" Export.to_csv

let test_span_value_round_trip () =
  (* Request spans carry the request id in [value]; both formats must
     preserve it (the Chrome exporter writes it as an args field). *)
  let evs = sample_events () in
  let req =
    List.find (fun e -> (Trace.cat e) = "request") evs
  in
  Alcotest.(check (float 0.)) "id recorded" 7. (Trace.value req);
  List.iter
    (fun serialize ->
      match Export.events_of_string (serialize [ ("t", [ req ]) ]) with
      | Ok [ parsed ] ->
          Alcotest.(check (float 1e-3)) "id survives round trip" 7.
            (Trace.value parsed)
      | Ok l -> Alcotest.failf "expected 1 event, got %d" (List.length l)
      | Error e -> Alcotest.fail e)
    [ Export.to_chrome ?dropped:None; Export.to_csv ]

let test_multi_track_concat () =
  let evs = sample_events () in
  let text = Export.to_csv [ ("a", evs); ("b", evs) ] in
  match Export.events_of_string text with
  | Ok parsed ->
      Alcotest.(check int) "tracks concatenated" (2 * List.length evs)
        (List.length parsed)
  | Error e -> Alcotest.fail e

let test_summary_render () =
  let s = Export.render_summary ~top:3 (sample_events ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "summary mentions %S" needle)
        true (contains s needle))
    [ "request"; "syscall-entry"; "closed-loop"; "250.00us" ]

let test_fmt_ns () =
  Alcotest.(check string) "ns" "12ns" (Export.fmt_ns 12.);
  Alcotest.(check string) "us" "1.25us" (Export.fmt_ns 1250.);
  Alcotest.(check string) "ms" "3.20ms" (Export.fmt_ns 3_200_000.);
  Alcotest.(check string) "s" "1.500s" (Export.fmt_ns 1.5e9)

let test_of_file_missing () =
  match Export.of_file "/nonexistent/xc-trace-test.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reading a missing file must be an Error"

let test_of_file_round_trip () =
  let evs = sample_events () in
  let path = Filename.temp_file "xc-trace-test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.to_file ~path [ ("t", evs) ];
      match Export.of_file path with
      | Ok parsed ->
          Alcotest.(check int) "all events read back" (List.length evs)
            (List.length parsed)
      | Error e -> Alcotest.fail e)

(* ---------------- QCheck: the ring at and around capacity ---------------- *)

(* Fill a ring of [capacity] with [n] spans and serialise/parse the
   survivors: the last [min n capacity] events must survive in order,
   the overflow must be counted, and the CSV round trip must preserve
   the lot.  Exercised densely around the boundary (exactly capacity
   and capacity+1) plus arbitrary overshoots. *)
let ring_roundtrip_holds capacity n =
  with_trace ~capacity (fun () ->
      let { Trace.dropped; events = evs; _ } =
        recorded (fun () ->
            for i = 1 to n do
              Trace.span ~cat:"c" ~name:(string_of_int i) (float_of_int i)
            done)
      in
      let expect_len = min n capacity in
      let expect_dropped = max 0 (n - capacity) in
      let names_ok =
        List.mapi (fun i e -> (i, (Trace.name e))) evs
        |> List.for_all (fun (i, name) ->
               name = string_of_int (n - expect_len + i + 1))
      in
      let round_trip_ok =
        match Export.events_of_string (Export.to_csv [ ("t", evs) ]) with
        | Ok parsed ->
            List.length parsed = expect_len
            && List.for_all2 roughly_equal evs parsed
        | Error _ -> false
      in
      List.length evs = expect_len
      && dropped = expect_dropped
      && names_ok && round_trip_ok)

let qcheck_ring_at_capacity =
  QCheck.Test.make ~count:50 ~name:"ring round-trips at exactly capacity"
    QCheck.(int_range 1 64)
    (fun capacity -> ring_roundtrip_holds capacity capacity)

let qcheck_ring_over_capacity =
  QCheck.Test.make ~count:50 ~name:"ring round-trips at capacity+1 and beyond"
    QCheck.(pair (int_range 1 64) (int_range 1 64))
    (fun (capacity, extra) ->
      ring_roundtrip_holds capacity (capacity + 1)
      && ring_roundtrip_holds capacity (capacity + extra))

(* ---------------- QCheck: the columns against a row-list model ---------------- *)

(* Random emit sequences, recorded and read back through the accessors,
   against a plain row list: a cursor, a per-stream stride gate and the
   last [capacity] rows.  All four emitters, strides 1 to 3, rings that
   end exactly full or one past full, columns that grow past their
   first size, captures nested in captures, and [concat] over captured
   segments. *)

type op =
  | Span of int * int  (* stream, ns *)
  | Span_at of int * int * int * int  (* stream, id, at, dur *)
  | Instant of int * int option
  | Counter of int * int option * int
  | Nested of op list

let stream_names = [| ("a", "x"); ("a", "y"); ("b", "x") |]

(* A capture's rows, drop count, streams and cursor, and its nested
   captures' in order. *)
type outcome = Outcome of (Trace_rows.t list * int * Trace.Stream.t list * float) * outcome list

let rec model ~stride ~capacity ops =
  let rows = ref [] and cursor = ref 0. and inner = ref [] in
  let seen = Hashtbl.create 4 in
  let keep k =
    stride <= 1
    ||
    let n, kept = Option.value ~default:(0, 0) (Hashtbl.find_opt seen k) in
    let ok = n mod stride = n / stride mod stride in
    Hashtbl.replace seen k (n + 1, if ok then kept + 1 else kept);
    ok
  in
  let at_or_cursor = function Some t -> float_of_int t | None -> !cursor in
  List.iter
    (function
      | Span (s, ns) ->
          let ((cat, name) as k) = stream_names.(s) and ts = !cursor in
          cursor := ts +. float_of_int ns;
          if keep k then rows := (Trace.Span, cat, name, ts, float_of_int ns, 0.) :: !rows
      | Span_at (s, id, at, d) ->
          let ((cat, name) as k) = stream_names.(s) in
          if keep k then
            rows :=
              (Trace.Span, cat, name, float_of_int at, float_of_int d, float_of_int id) :: !rows
      | Instant (s, at) ->
          let ((cat, name) as k) = stream_names.(s) and ts = at_or_cursor at in
          if keep k then rows := (Trace.Instant, cat, name, ts, 0., 0.) :: !rows
      | Counter (s, at, v) ->
          let ((cat, name) as k) = stream_names.(s) and ts = at_or_cursor at in
          if keep k then rows := (Trace.Counter, cat, name, ts, 0., float_of_int v) :: !rows
      | Nested ops -> inner := model ~stride ~capacity ops :: !inner)
    ops;
  let all = List.rev !rows in
  let n = List.length all in
  let streams =
    Hashtbl.fold
      (fun (cat, name) (seen, kept) acc -> { Trace.Stream.cat; name; seen; kept } :: acc)
      seen []
    |> List.sort (fun (a : Trace.Stream.t) b -> compare (a.cat, a.name) (b.cat, b.name))
  in
  Outcome
    ( (List.filteri (fun i _ -> i >= n - capacity) all, max 0 (n - capacity), streams, !cursor),
      List.rev !inner )

let rec recorded_ops ops =
  let inner = ref [] in
  let c =
    recorded (fun () ->
        List.iter
          (function
            | Span (s, ns) ->
                let cat, name = stream_names.(s) in
                Trace.span ~cat ~name (float_of_int ns)
            | Span_at (s, id, at, d) ->
                let cat, name = stream_names.(s) in
                Trace.span_at ~id ~cat ~name [| float_of_int at; float_of_int d |]
            | Instant (s, at) ->
                let cat, name = stream_names.(s) in
                Trace.instant ?at:(Option.map float_of_int at) ~cat ~name ()
            | Counter (s, at, v) ->
                let cat, name = stream_names.(s) in
                Trace.counter ?at:(Option.map float_of_int at) ~cat ~name (float_of_int v)
            | Nested ops -> inner := snd (recorded_ops ops) :: !inner)
          ops)
  in
  (c, Outcome (Trace_rows.captured c, List.rev !inner))

(* [concat] over the model's segments: each starts where the one before
   it ends — past its cursor and past its latest row — accounting
   added. *)
let model_concat segments =
  let shift dt (kind, cat, name, ts, dur, value) =
    (kind, cat, name, (if dt = 0. then ts else ts +. dt), dur, value)
  in
  let rows, dropped, streams, cursor =
    List.fold_left
      (fun (rows, dropped, streams, offset) (Outcome ((r, d, s, c), _)) ->
        let last =
          List.fold_left
            (fun m (_, _, _, ts, dur, _) -> if ts +. dur > m then ts +. dur else m)
            0. r
        in
        (rows @ List.map (shift offset) r, dropped + d, streams @ s, offset +. Float.max c last))
      ([], 0, [], 0.) segments
  in
  let merged = Hashtbl.create 4 in
  List.iter
    (fun (s : Trace.Stream.t) ->
      let seen, kept = Option.value ~default:(0, 0) (Hashtbl.find_opt merged (s.cat, s.name)) in
      Hashtbl.replace merged (s.cat, s.name) (seen + s.seen, kept + s.kept))
    streams;
  let streams =
    Hashtbl.fold
      (fun (cat, name) (seen, kept) acc -> { Trace.Stream.cat; name; seen; kept } :: acc)
      merged []
    |> List.sort (fun (a : Trace.Stream.t) b -> compare (a.cat, a.name) (b.cat, b.name))
  in
  (rows, dropped, streams, cursor)

let gen_ops =
  let open QCheck.Gen in
  let stream = int_range 0 2 and t = int_range 0 1000 and d = int_range 0 100 in
  let flat =
    frequency
      [
        (4, map2 (fun s ns -> Span (s, ns)) stream d);
        (3, map4 (fun s id at dur -> Span_at (s, id, at, dur)) stream (int_range 0 9) t d);
        (1, map2 (fun s at -> Instant (s, at)) stream (opt t));
        (1, map3 (fun s at v -> Counter (s, at, v)) stream (opt t) d);
      ]
  in
  list_size (int_range 0 90)
    (frequency [ (12, flat); (1, map (fun l -> Nested l) (list_size (int_range 0 12) flat)) ])

let recorder_model_prop =
  QCheck.Test.make ~name:"columns read back as the row-list model" ~count:300
    (QCheck.make
       ~print:(fun (ops, stride, fit) ->
         Printf.sprintf "%d ops, stride %d, capacity choice %d" (List.length ops) stride fit)
       QCheck.Gen.(triple gen_ops (int_range 1 3) (int_range 0 2)))
    (fun (ops, stride, fit) ->
      (* Size the ring off the top capture's row count: exactly full,
         one past full, or anything from 1 to 80. *)
      let (Outcome ((all, _, _, _), _)) = model ~stride ~capacity:max_int ops in
      let n = List.length all in
      let capacity =
        match fit with 0 -> max 1 n | 1 -> max 1 (n - 1) | _ -> 1 + (List.length ops * 7 mod 80)
      in
      with_trace ~capacity ~sample:stride (fun () ->
          let _, got = recorded_ops ops in
          if got <> model ~stride ~capacity ops then
            QCheck.Test.fail_report "capture differs from the model";
          (* The same ops as three captured segments, joined. *)
          let k = List.length ops in
          let parts =
            [
              List.filteri (fun i _ -> i < k / 3) ops;
              List.filteri (fun i _ -> i >= k / 3 && i < 2 * k / 3) ops;
              List.filteri (fun i _ -> i >= 2 * k / 3) ops;
            ]
          in
          let segments = List.map (fun p -> fst (recorded_ops p)) parts in
          if
            Trace_rows.captured (Trace.concat segments)
            <> model_concat (List.map (model ~stride ~capacity) parts)
          then QCheck.Test.fail_report "concat differs from the model";
          true))

(* A short capture costs its rows, not its capacity: the columns start
   small and grow on demand, so ten events under a 2^20-event capacity
   allocate tens of words per event, major heap included. *)
let test_small_capture_words () =
  with_trace ~capacity:(1 lsl 20) (fun () ->
      (* [Gc.counters]'s minor count lags until a minor collection;
         [Gc.minor_words] does not. *)
      let words () =
        let _, promoted, major = Gc.counters () in
        Gc.minor_words () +. major -. promoted
      in
      let w0 = words () in
      let c =
        recorded (fun () ->
            for _ = 1 to 10 do
              Trace.span ~cat:"c" ~name:"n" 1.
            done)
      in
      let w = words () -. w0 in
      Alcotest.(check int) "all ten recorded" 10 (List.length c.Trace.events);
      Alcotest.(check bool)
        (Printf.sprintf "%.0f words for 10 events within 400" w)
        true (w <= 400.))

(* ---------------- diff ---------------- *)

let span ?(ts = 0.) cat name dur =
  Trace.make ~kind:Trace.Span ~cat ~name ~ts ~dur ~value:0.

let test_diff_math () =
  let a = [ span "entry" "trap" 400.; span "entry" "trap" 400.; span "work" "read" 50. ] in
  let b = [ span "entry" "call" 10.; span "entry" "call" 10.; span "work" "read" 60. ] in
  let r = Diff.diff ~a ~b () in
  Alcotest.(check (float 1e-9)) "a total" 850. r.Diff.a_total_ns;
  Alcotest.(check (float 1e-9)) "b total" 80. r.Diff.b_total_ns;
  (match r.Diff.rows with
  | [ first; second ] ->
      Alcotest.(check string) "largest |delta| first" "entry" first.Diff.cat;
      Alcotest.(check (float 1e-9)) "entry delta" (-780.) (Diff.delta first);
      Alcotest.(check (float 1e-9)) "work delta" 10. (Diff.delta second);
      Alcotest.(check int) "counts" 2 first.Diff.b_count
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  (match Diff.dominant r with
  | Some row -> Alcotest.(check string) "dominant" "entry" row.Diff.cat
  | None -> Alcotest.fail "no dominant row");
  Alcotest.(check (float 1e-9)) "dominant share" (780. /. 790.)
    (Diff.dominant_share r);
  (* A category present on only one side still shows up. *)
  let r2 = Diff.diff ~a ~b:[ span "new-cat" "x" 5. ] () in
  Alcotest.(check int) "union of categories" 3 (List.length r2.Diff.rows)

let test_diff_identical () =
  let a = [ span "entry" "trap" 400. ] in
  let r = Diff.diff ~a ~b:a () in
  Alcotest.(check (float 0.)) "no dominant share" 0. (Diff.dominant_share r);
  List.iter
    (fun row -> Alcotest.(check (float 0.)) "zero delta" 0. (Diff.delta row))
    r.Diff.rows

let test_names_in () =
  let a = [ span "entry" "trap" 400.; span "entry" "vmexit" 100. ] in
  let b = [ span "entry" "call" 10. ] in
  let rows = Diff.names_in ~cat:"entry" ~a ~b () in
  Alcotest.(check int) "three mechanisms" 3 (List.length rows)

let test_diff_sampled_rescale () =
  (* A sampled side rescaled by its stream counters must diff as the
     full trace would: 2 kept spans of 100ns with seen=8/kept=2 count
     as 800ns. *)
  let a = [ span "entry" "trap" 100.; span "entry" "trap" 100. ] in
  let b = [ span "entry" "trap" 100. ] in
  let a_streams =
    [ { Trace.Stream.cat = "entry"; name = "trap"; seen = 8; kept = 2 } ]
  in
  let r = Diff.diff ~a_streams ~a ~b () in
  Alcotest.(check (float 1e-6)) "rescaled total" 800. r.Diff.a_total_ns;
  Alcotest.(check (float 1e-6)) "unsampled side untouched" 100. r.Diff.b_total_ns

(* ---------------- flamegraph folding ---------------- *)

let test_fold_nesting () =
  let evs =
    [
      span ~ts:0. "request" "httpd" 100.;
      span ~ts:0. "syscall-work" "send" 30.;
      span ~ts:30. "net.hop" "native-stack" 20.;
      span ~ts:200. "syscall-work" "send" 10.;
    ]
  in
  let rows = Profile.fold evs in
  Alcotest.(check int) "four stacks" 4 (List.length rows);
  let assoc stack = List.assoc stack rows in
  Alcotest.(check (float 1e-9)) "parent self-time excludes children" 50.
    (assoc "request;httpd");
  Alcotest.(check (float 1e-9)) "nested child" 30.
    (assoc "request;httpd;syscall-work;send");
  Alcotest.(check (float 1e-9)) "second child" 20.
    (assoc "request;httpd;net.hop;native-stack");
  Alcotest.(check (float 1e-9)) "outside the window: root frame" 10.
    (assoc "syscall-work;send")

let test_to_folded_format () =
  let evs =
    [ span ~ts:0. "request" "httpd" 100.; span ~ts:0. "syscall-work" "send" 30. ]
  in
  let out = Export.to_folded [ ("t", evs) ] in
  Alcotest.(check string) "collapsed-stack lines, sorted, root-prefixed"
    "t;request;httpd 70\nt;request;httpd;syscall-work;send 30\n" out

let test_fold_escapes_frames () =
  let evs = [ span ~ts:0. "a b" "x;y" 10. ] in
  match Profile.fold evs with
  | [ (stack, _) ] ->
      Alcotest.(check string) "no space or semicolon inside a frame"
        "a_b;x:y" stack
  | rows -> Alcotest.failf "expected 1 stack, got %d" (List.length rows)

(* ---------------- QCheck: fold vs O(n^2) reference ---------------- *)

(* Independent reference for [Profile.fold]: the same canonical order,
   an explicit O(n^2) parent array instead of a stack, and each stack
   read off the parent links. *)
let reference_fold events =
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
         (List.filter (fun e -> Trace.kind e = Trace.Span && Trace.dur e > 0.) events))
  in
  let n = Array.length a in
  let ends = Array.map (fun e -> Trace.ts e +. Trace.dur e) a in
  let eps x = (1e-9 *. Float.abs x) +. 1e-6 in
  let parent = Array.make n (-1) in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      if ends.(j) +. eps ends.(j) >= ends.(i) then parent.(i) <- j
    done
  done;
  let self = Array.map Trace.dur a in
  Array.iteri
    (fun i p -> if p >= 0 then self.(p) <- self.(p) -. Trace.dur a.(i))
    parent;
  let rec stack i =
    let frame = Trace.cat a.(i) ^ ";" ^ Trace.name a.(i) in
    if parent.(i) < 0 then frame else stack parent.(i) ^ ";" ^ frame
  in
  let rows = Hashtbl.create 16 in
  Array.iteri
    (fun i self ->
      if self > 0. then
        let k = stack i in
        Hashtbl.replace rows k
          (self +. Option.value ~default:0. (Hashtbl.find_opt rows k)))
    self;
  (parent, List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) rows []))

let fold_prop =
  QCheck.Test.make ~name:"fold matches O(n^2) reference" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 30)
           (triple (int_range 0 80) (int_range 0 40) (int_range 0 8))))
    (fun triples ->
      let cats = [| "request"; "cpu"; "net.hop"; "syscall-work" |] in
      let events =
        List.map
          (fun (ts, dur, roll) ->
            if roll = 8 then
              Trace.make ~kind:Trace.Instant ~cat:"noise" ~name:"tick"
                ~ts:(float_of_int ts) ~dur:0. ~value:0.
            else
              span ~ts:(float_of_int ts) cats.(roll mod 4)
                (if roll < 4 then "a" else "b")
                (float_of_int dur))
          triples
      in
      let ref_parent, ref_rows = reference_fold events in
      let forest = Profile.sweep events in
      if forest.Profile.parent <> ref_parent then
        QCheck.Test.fail_report "sweep parents differ from reference";
      (* Children close before their parent. *)
      let pos = Array.make (Array.length forest.Profile.closing) 0 in
      Array.iteri (fun k i -> pos.(i) <- k) forest.Profile.closing;
      Array.iteri
        (fun i p ->
          if p >= 0 && pos.(i) > pos.(p) then
            QCheck.Test.fail_reportf "span %d closes after its parent %d" i p)
        ref_parent;
      let got = Profile.fold events in
      if List.map fst got <> List.map fst ref_rows then
        QCheck.Test.fail_report "fold stacks differ from reference";
      List.iter2
        (fun (k, v) (_, w) ->
          if Float.abs (v -. w) > 1e-6 +. (1e-9 *. Float.abs w) then
            QCheck.Test.fail_reportf "%s: fold %.9f <> reference %.9f" k v w)
        got ref_rows;
      true)

(* ---------------- per-request attribution ---------------- *)

let req id ts dur =
  Trace.make ~kind:Trace.Span ~cat:"request" ~name:"httpd" ~ts ~dur
    ~value:(float_of_int id)

let test_slowest_requests () =
  (* Request 3 nests inside request 1 and is charged to it whole. *)
  let evs =
    [
      req 1 0. 100.;
      span ~ts:10. "syscall-work" "send" 40.;
      span ~ts:50. "net.hop" "native-stack" 20.;
      req 3 75. 20.;
      req 2 200. 300.;
      span ~ts:210. "syscall-work" "recv" 250.;
    ]
  in
  let mech_t = Alcotest.(list (triple string int (float 1e-9))) in
  (match Profile.requests (Profile.attribute evs) with
  | [ r2; r1; r3 ] ->
      Alcotest.(check (list int)) "slowest first" [ 2; 1; 3 ]
        [ r2.Profile.req_id; r1.Profile.req_id; r3.Profile.req_id ];
      Alcotest.(check (float 1e-9)) "its duration" 300. r2.Profile.req_total;
      Alcotest.check mech_t "its mechanism" [ ("syscall-work", 1, 250.) ]
        r2.Profile.req_mech;
      Alcotest.check mech_t "children largest first"
        [ ("syscall-work", 1, 40.); ("net.hop", 1, 20.) ]
        r1.Profile.req_mech;
      Alcotest.(check int) "one nested request" 1 r1.Profile.req_nested;
      Alcotest.(check (float 1e-9))
        "charged whole" 20. r1.Profile.req_nested_ns;
      Alcotest.(check (float 1e-9))
        "uncovered remainder" 20. r1.Profile.req_self
  | rs -> Alcotest.failf "expected 3 requests, got %d" (List.length rs));
  let rendered = Profile.render_slowest ~k:2 evs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "rendering mentions %S" needle)
        true (contains rendered needle))
    [
      "slowest 2 of 3 requests"; "#1 httpd"; "(nested-request)   x1"; "(self)";
    ];
  Alcotest.(check bool) "only the top k" false (contains rendered "#3 httpd")

(* The acceptance shape: tracing httpd requests end-to-end explains
   each one by mechanism. *)
let traced_httpd_requests () =
  let kernel = Xc_os.Kernel.create ~config:Xc_os.Kernel.xlibos_config () in
  let vfs = Xc_os.Kernel.vfs kernel in
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.fail (Xc_os.Vfs.error_to_string e)
  in
  ok (Xc_os.Vfs.mkdir_p vfs "/var/www");
  ok (Xc_os.Vfs.write_file vfs "/var/www/small.html" (Bytes.make 64 'x'));
  ok (Xc_os.Vfs.write_file vfs "/var/www/big.html" (Bytes.make 60_000 'x'));
  let server =
    match Xc_apps.Httpd.create ~kernel ~port:80 ~docroot:"/var/www" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  with_trace (fun () ->
      let (), captured =
        Trace.capture (fun () ->
            for i = 1 to 10 do
              let path = if i mod 2 = 0 then "/big.html" else "/small.html" in
              match Xc_apps.Httpd.get ~id:i server ~path with
              | Ok (200, _) -> ()
              | Ok (code, _) -> Alcotest.failf "request %d: got %d" i code
              | Error e -> Alcotest.fail e
            done)
      in
      captured.Trace.events)

let test_httpd_slowest_shape () =
  let evs = traced_httpd_requests () in
  let reqs = Profile.requests (Profile.attribute evs) in
  Alcotest.(check int) "every request traced" 10 (List.length reqs);
  (* The slowest requests are the big-page ones, and each is explained
     by mechanism: syscall-work children account for (most of) it. *)
  List.iteri
    (fun i (r : Profile.attributed_request) ->
      if i < 3 then begin
        Alcotest.(check bool)
          (Printf.sprintf "slow request %d is a big page" r.Profile.req_id)
          true
          (r.Profile.req_id mod 2 = 0);
        Alcotest.(check bool) "has syscall-work children" true
          (List.exists
             (fun (c, _, _) -> c = "syscall-work")
             r.Profile.req_mech);
        Alcotest.(check bool) "children explain the request" true
          (r.Profile.req_self < 0.1 *. r.Profile.req_total)
      end)
    reqs;
  let rendered = Profile.render_slowest ~k:3 evs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "rendering mentions %S" needle)
        true (contains rendered needle))
    [ "slowest 3 of 10 requests"; "httpd"; "syscall-work"; "%" ]

(* ---------------- sampled fig9: rescale accuracy ---------------- *)

let fig9_trace ~sample () =
  with_trace ~sample (fun () ->
      let (), captured =
        Trace.capture (fun () ->
            for _ = 1 to 32 do
              List.iter
                (fun s -> ignore (Xc_apps.Lb_experiment.run s))
                Xc_apps.Lb_experiment.all
            done)
      in
      captured)

let test_fig9_sampled_rescale () =
  let full = fig9_trace ~sample:1 () in
  let sampled = fig9_trace ~sample:16 () in
  Alcotest.(check bool) "sampling dropped events" true
    (List.length sampled.Trace.events < List.length full.Trace.events);
  let full_totals = cat_totals full.Trace.events in
  let est_totals =
    cat_totals ~streams:sampled.Trace.streams sampled.Trace.events
  in
  let grand_total = List.fold_left (fun acc (_, t) -> acc +. t) 0. full_totals in
  List.iter
    (fun (cat, full_ns) ->
      (* Rescaled estimates must land within 5% for every category that
         carries real weight (>= 1% of the trace). *)
      if full_ns >= 0.01 *. grand_total then begin
        let est_ns = try List.assoc cat est_totals with Not_found -> 0. in
        let rel_err = Float.abs (est_ns -. full_ns) /. full_ns in
        if rel_err > 0.05 then
          Alcotest.failf "category %s: rescaled %.0fns vs full %.0fns (%.1f%%)"
            cat est_ns full_ns (100. *. rel_err)
      end)
    full_totals

(* ---------------- the Figure 4 shape ---------------- *)

(* Trace the UnixBench System Call loop on two platforms and diff: the
   delta must be explained by the syscall-entry path (trap+KPTI on
   Docker vs ABOM-patched function call on X-Containers), with the
   mode-switch counts the paper's Figure 2 narrative predicts. *)

let syscall_loop_trace runtime iters =
  let platform = Xc_platforms.Platform.create (Config.make runtime) in
  with_trace (fun () ->
      let (), captured =
        Trace.capture (fun () ->
            for _ = 1 to iters do
              ignore
                (Xc_apps.Unixbench.per_iteration_ns platform
                   Xc_apps.Unixbench.Syscall_rate)
            done)
      in
      Alcotest.(check int) "no drops" 0 captured.Trace.dropped;
      captured.Trace.events)

let count_cat cat evs =
  List.length (List.filter (fun e -> (Trace.cat e) = cat) evs)

let test_fig4_shape () =
  let iters = 20 in
  let docker = syscall_loop_trace Config.Docker iters in
  let xc = syscall_loop_trace Config.X_container iters in
  let r = Diff.diff ~a:docker ~b:xc () in
  (match Diff.dominant r with
  | Some row ->
      Alcotest.(check string) "entry path explains the delta" "syscall-entry"
        row.Diff.cat
  | None -> Alcotest.fail "empty diff");
  Alcotest.(check bool) "majority of the delta" true (Diff.dominant_share r > 0.5);
  Alcotest.(check bool) "X-Container wins end to end" true
    (r.Diff.b_total_ns < r.Diff.a_total_ns);
  (* 5 syscalls per iteration; a trap costs 2 mode switches, the
     ABOM-converted call none. *)
  Alcotest.(check int) "docker mode switches" (iters * 5 * 2)
    (count_cat "mode-switch" docker);
  Alcotest.(check int) "xc fast-path mode switches" 0 (count_cat "mode-switch" xc);
  (* Both kernels do identical in-kernel work: that category cancels. *)
  let work_row =
    List.find (fun (row : Diff.row) -> row.Diff.cat = "syscall-work") r.Diff.rows
  in
  Alcotest.(check (float 1e-6)) "in-kernel work cancels" 0. (Diff.delta work_row)

let suites =
  [
    ( "trace.recorder",
      [
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "cursor timeline" `Quick test_cursor_timeline;
        Alcotest.test_case "ring bound + dropped" `Quick test_ring_bound;
        Alcotest.test_case "capacity change counts drops" `Quick
          test_capacity_change_drops;
        Alcotest.test_case "capture nesting" `Quick test_capture_nesting;
        Alcotest.test_case "capture on exception" `Quick test_capture_exception;
        Alcotest.test_case "parallel merge deterministic" `Quick
          test_parallel_merge_deterministic;
        QCheck_alcotest.to_alcotest qcheck_ring_at_capacity;
        QCheck_alcotest.to_alcotest qcheck_ring_over_capacity;
        QCheck_alcotest.to_alcotest recorder_model_prop;
        Alcotest.test_case "a short capture allocates its rows" `Quick
          test_small_capture_words;
      ] );
    ( "trace.sampler",
      [
        Alcotest.test_case "fixed stride + exact accounting" `Quick
          test_sampler_stride;
        Alcotest.test_case "independent per-stream gates" `Quick
          test_sampler_per_stream;
        Alcotest.test_case "periodic streams sampled phase-fairly" `Quick
          test_sampler_phase_fair;
        Alcotest.test_case "sampled parallel runs deterministic" `Quick
          test_parallel_sampled_deterministic;
        Alcotest.test_case "sampled fig9 rescales within 5%" `Quick
          test_fig9_sampled_rescale;
      ] );
    ( "trace.export",
      [
        Alcotest.test_case "chrome round trip" `Quick test_chrome_round_trip;
        Alcotest.test_case "csv round trip" `Quick test_csv_round_trip;
        Alcotest.test_case "span value round trip" `Quick
          test_span_value_round_trip;
        Alcotest.test_case "multi-track concat" `Quick test_multi_track_concat;
        Alcotest.test_case "summary" `Quick test_summary_render;
        Alcotest.test_case "fmt_ns" `Quick test_fmt_ns;
        Alcotest.test_case "of_file missing" `Quick test_of_file_missing;
        Alcotest.test_case "of_file round trip" `Quick test_of_file_round_trip;
      ] );
    ( "trace.profile",
      [
        Alcotest.test_case "fold nests by containment" `Quick test_fold_nesting;
        Alcotest.test_case "collapsed-stack output" `Quick test_to_folded_format;
        Alcotest.test_case "frame escaping" `Quick test_fold_escapes_frames;
        QCheck_alcotest.to_alcotest fold_prop;
        Alcotest.test_case "slowest requests" `Quick test_slowest_requests;
        Alcotest.test_case "httpd --slowest shape" `Quick
          test_httpd_slowest_shape;
      ] );
    ( "trace.diff",
      [
        Alcotest.test_case "aggregation and ranking" `Quick test_diff_math;
        Alcotest.test_case "identical traces" `Quick test_diff_identical;
        Alcotest.test_case "per-name rows" `Quick test_names_in;
        Alcotest.test_case "sampled-side rescale" `Quick
          test_diff_sampled_rescale;
        Alcotest.test_case "figure 4 shape" `Quick test_fig4_shape;
      ] );
  ]
