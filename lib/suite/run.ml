(* The experiment runner behind the bench and `xc`: cells on the
   worker pool, captures merged in submission order, reports rendered
   in the merge phase, and the artifact writers every front-end
   shares. *)

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

let run ~jobs experiments =
  Xc_sim.Parallel.run_sharded ~jobs (List.map shard experiments)

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

let events tracks =
  List.map (fun (label, (c : Trace.captured)) -> (label, c.events)) tracks

let write_trace ~path tracks =
  let dropped =
    List.fold_left (fun a (_, (c : Trace.captured)) -> a + c.dropped) 0 tracks
  in
  Export.to_file ~dropped ~path (events tracks)

let write_folded ~path tracks = write_file path (Export.to_folded (events tracks))

let ( let* ) = Result.bind

let rec tails ~pct = function
  | [] -> Ok []
  | (label, captured) :: rest ->
      let* tail = Xc_obs.Causal.tail_at ~label ~pct captured in
      let* tails = tails ~pct rest in
      Ok (Option.to_list tail @ tails)

let write_tails = Export.tails_to_file

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

let write_timeseries ~path tracks =
  Export.to_file ~path
    (List.map (fun (label, tel) -> (label, Metrics.to_trace_events tel)) tracks)
