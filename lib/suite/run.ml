(* The experiment runner behind the bench and `xc`: the tracing and
   telemetry switch, cells on the worker pool, captures merged in
   submission order, reports rendered in the merge phase, and the one
   artifact writer. *)

module Trace = Xc_trace.Trace
module Export = Xc_trace.Export
module Metrics = Xc_sim.Metrics

type block = Section of string | Table of Xc_sim.Table.t | Line of string
type report = block list

let render report =
  let b = Buffer.create 4096 in
  List.iter
    (function
      | Section title ->
          Printf.bprintf b "\n%s\n%s\n\n" title
            (String.make (String.length title) '#')
      | Table t -> Buffer.add_string b (Xc_sim.Table.render t)
      | Line s ->
          Buffer.add_string b s;
          Buffer.add_char b '\n')
    report;
  Buffer.contents b

let tables report = List.filter_map (function Table t -> Some t | _ -> None) report

type cells =
  | Cells : { shards : (unit -> 'b) array; report : 'b array -> report } -> cells

let whole f = Cells { shards = [| f |]; report = (fun r -> r.(0)) }

type piece = {
  trace : Trace.captured;
  telemetry : Metrics.telemetry;
  events : int;
}

type outcome = {
  name : string;
  report : report;
  output : string;
  pieces : piece array;
  trace : Trace.captured;
  telemetry : Metrics.telemetry;
}

(* Runs one cell instrumented.  The trace capture gives each cell its
   own buffer and cursor starting at 0, so the experiment's track is
   independent of which domain — and after what history — ran it. *)
let instrument f () =
  let events0 = Xc_sim.Engine.domain_events () in
  let (data, trace), telemetry = Metrics.capture (fun () -> Trace.capture f) in
  let events = Xc_sim.Engine.domain_events () - events0 in
  (data, { trace; telemetry; events })

(* Every cell goes to the pool; the outcome is assembled in the
   (deterministic, index-ordered) merge phase: the report is built over
   the cell results and rendered, traces concatenate with rebased
   cursors, telemetry merges. *)
let shard (name, Cells { shards; report }) =
  Xc_sim.Parallel.Shard.make
    ~shards:(Array.map instrument shards)
    ~merge:(fun cells ->
      let report = report (Array.map fst cells) in
      let pieces = Array.map snd cells in
      {
        name;
        report;
        output = render report;
        pieces;
        trace =
          Trace.concat
            (Array.to_list (Array.map (fun (p : piece) -> p.trace) pieces));
        telemetry =
          Array.fold_left
            (fun a (p : piece) -> Metrics.merge_telemetry a p.telemetry)
            Metrics.empty_telemetry pieces;
      })

(* Tracing and telemetry on, as asked, for [f] alone. *)
let capturing ?trace ?telemetry f =
  Option.iter (fun sample -> Trace.enable ~sample ()) trace;
  Option.iter (fun interval_ns -> Metrics.enable ~interval_ns ()) telemetry;
  Fun.protect f ~finally:(fun () ->
      if trace <> None then Trace.disable ();
      if telemetry <> None then Metrics.disable ())

let run ?trace ?telemetry ~jobs experiments =
  capturing ?trace ?telemetry (fun () ->
      Xc_sim.Parallel.run_sharded ~jobs (List.map shard experiments))

let map ?trace ?telemetry ~jobs cells =
  let all =
    Xc_sim.Parallel.Shard.make
      ~shards:(Array.of_list (List.map instrument cells))
      ~merge:Array.to_list
  in
  match capturing ?trace ?telemetry (fun () -> Xc_sim.Parallel.run_sharded ~jobs [ all ]) with
  | [ results ] -> results
  | _ -> assert false

let suite (s : Suite.t) =
  Cells
    {
      shards =
        Array.of_list (List.map (fun spec () -> Driver.run spec) s.Suite.specs);
      report =
        (fun rows ->
          [
            Section (Printf.sprintf "Suite: %s" s.Suite.name);
            Table (Driver.table (Array.to_list rows));
          ]);
    }

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)

let write_file path data =
  Out_channel.with_open_text path (fun oc -> output_string oc data)

let ( let* ) = Result.bind

let rec tails ~pct = function
  | [] -> Ok []
  | (label, captured) :: rest ->
      let* tail = Xc_obs.Causal.tail_at ~label ~pct captured in
      let* tails = tails ~pct rest in
      Ok (Option.to_list tail @ tails)

type files = {
  trace_out : string option;
  request_lanes : bool;
  folded_out : string option;
  tails_out : string option;
  timeseries_out : string option;
  perfetto_out : string option;
}

let no_files =
  {
    trace_out = None;
    request_lanes = false;
    folded_out = None;
    tails_out = None;
    timeseries_out = None;
    perfetto_out = None;
  }

let events spans = List.map (fun (label, (c : Trace.captured)) -> (label, c.events)) spans
let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* A track's request spans apart from its mechanism spans. *)
let lanes (label, (c : Trace.captured)) =
  match
    List.partition
      (fun ev -> Trace.kind ev = Trace.Span && Trace.cat ev = "request")
      c.events
  with
  | [], rest -> [ (label, rest) ]
  | requests, rest -> [ (label, rest); (label ^ "/request-id", requests) ]

let write ?(spans = []) ?(tails = []) ?(series = []) files =
  let dropped = sum (fun (_, (c : Trace.captured)) -> c.dropped) spans in
  let counters =
    lazy (List.map (fun (label, tel) -> (label, Metrics.to_trace_events tel)) series)
  in
  (* [write path] writes the file and says what it holds. *)
  let file path write = Option.map (fun path -> path ^ " (" ^ write path ^ ")") path in
  List.filter_map Fun.id
    [
      file files.tails_out (fun path ->
          Export.tails_to_file ~path tails;
          Printf.sprintf "%d request-emitting track(s)" (List.length tails));
      file files.trace_out (fun path ->
          Export.to_file ~dropped ~path
            (if files.request_lanes then List.concat_map lanes spans else events spans);
          let offered =
            sum
              (fun (_, (c : Trace.captured)) ->
                sum (fun (s : Trace.Stream.t) -> s.seen) c.streams)
              spans
          in
          Printf.sprintf "%d events%s%s"
            (sum (fun (_, (c : Trace.captured)) -> List.length c.events) spans)
            (if offered > 0 then Printf.sprintf " kept of %d offered" offered else "")
            (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else ""));
      file files.folded_out (fun path ->
          let folded = Export.to_folded (events spans) in
          write_file path folded;
          Printf.sprintf "%d stacks"
            (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 folded));
      file files.timeseries_out (fun path ->
          Export.to_file ~path (Lazy.force counters);
          Printf.sprintf "%d snapshots"
            (sum (fun (_, (t : Metrics.telemetry)) -> List.length t.snapshots) series));
      file files.perfetto_out (fun path ->
          let tracks =
            List.concat
              (List.mapi
                 (fun i (label, (c : Trace.captured)) ->
                   (label, c.events)
                   ::
                   (match List.nth_opt (Lazy.force counters) i with
                   | Some (_, (_ :: _ as evs)) -> [ (label ^ "/metrics", evs) ]
                   | _ -> []))
                 spans)
          in
          Export.to_file ~dropped ~path tracks;
          Printf.sprintf "%d tracks" (List.length tracks));
    ]

(* "(a) Amazon EC2 Single" -> "a_amazon_ec2_single". *)
let slug title =
  String.split_on_char ' ' (String.map (fun c ->
      match Char.lowercase_ascii c with ('a' .. 'z' | '0' .. '9') as c -> c | _ -> ' ') title)
  |> List.filter (( <> ) "")
  |> String.concat "_"

let write_csvs ~dir ~id report =
  (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ());
  List.map
    (fun table ->
      let name =
        match Xc_sim.Table.title table with
        | None -> id
        | Some title -> id ^ "_" ^ slug title
      in
      let path = Filename.concat dir (name ^ ".csv") in
      write_file path (Xc_sim.Table.to_csv table);
      path)
    (tables report)
