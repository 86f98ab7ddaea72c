(* The experiment runner behind the bench and `xc`: cells on the
   worker pool, one output buffer per domain, captures merged in
   submission order, and the artifact writers every front-end shares. *)

module Trace = Xc_trace.Trace
module Export = Xc_trace.Export
module Metrics = Xc_sim.Metrics

(* All experiment output goes through a domain-local buffer, so a cell
   can run on a worker domain and still have its output emitted whole,
   in submission order: the parallel run is byte-identical to the
   sequential one by construction. *)
module Out = struct
  let key = Domain.DLS.new_key (fun () -> Buffer.create 8192)
  let buffer () = Domain.DLS.get key
  let printf fmt = Printf.ksprintf (fun s -> Buffer.add_string (buffer ()) s) fmt
  let print_string s = Buffer.add_string (buffer ()) s

  let print_endline s =
    let b = buffer () in
    Buffer.add_string b s;
    Buffer.add_char b '\n'

  let print_newline () = Buffer.add_char (buffer ()) '\n'
  let print_table t = print_string (Xc_sim.Table.render t)

  let section title =
    printf "\n%s\n%s\n\n" title (String.make (String.length title) '#')
end

type 'r cells =
  | Cells : { shards : (unit -> 'b) array; print : 'b array -> 'r } -> 'r cells

let whole f = Cells { shards = [| f |]; print = (fun r -> r.(0)) }
let map f (Cells c) = Cells { shards = c.shards; print = (fun r -> f (c.print r)) }

type piece = {
  trace : Trace.captured;
  telemetry : Metrics.telemetry;
  events : int;
}

type 'r outcome = {
  name : string;
  output : string;
  result : 'r;
  pieces : piece array;
  trace : Trace.captured;
  telemetry : Metrics.telemetry;
}

(* Runs one cell with its output captured in the domain-local buffer.
   The trace capture gives each cell its own buffer and cursor starting
   at 0, so the experiment's track is independent of which domain — and
   after what history — ran it. *)
let instrument f () =
  let buf = Out.buffer () in
  Buffer.clear buf;
  let events0 = Xc_sim.Engine.domain_events () in
  let (data, trace), telemetry = Metrics.capture (fun () -> Trace.capture f) in
  let events = Xc_sim.Engine.domain_events () - events0 in
  (data, Buffer.contents buf, { trace; telemetry; events })

(* Every cell goes to the pool; the outcome is assembled in the
   (deterministic, index-ordered) merge phase: outputs concatenate,
   traces concatenate with rebased cursors, telemetry merges.  The
   printer runs against a cleared buffer so its tables land after any
   output the cells themselves produced. *)
let shard : type r. string * r cells -> r outcome Xc_sim.Parallel.Shard.t =
 fun (name, Cells { shards; print }) ->
  Xc_sim.Parallel.Shard.make
    ~shards:(Array.map instrument shards)
    ~merge:(fun cells ->
      let buf = Out.buffer () in
      Buffer.clear buf;
      let result = print (Array.map (fun (d, _, _) -> d) cells) in
      let pieces = Array.map (fun (_, _, p) -> p) cells in
      {
        name;
        output =
          String.concat "" (Array.to_list (Array.map (fun (_, o, _) -> o) cells))
          ^ Buffer.contents buf;
        result;
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
      print =
        (fun rows ->
          let rows = Array.to_list rows in
          Out.section (Printf.sprintf "Suite: %s" s.Suite.name);
          Out.print_string (Driver.render rows);
          rows);
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

let write_timeseries ~path tracks =
  Export.to_file ~path
    (List.map (fun (label, tel) -> (label, Metrics.to_trace_events tel)) tracks)
