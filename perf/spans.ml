(* The benchmark's own spans: one per call it makes into a simulator
   layer, nested workload > phase (setup, pass, probe) > cell > layer
   call.  Kept in memory and written once, as Chrome trace JSON, when
   the run ends.  Single-domain: nothing records inside the parallel
   probe's worker domains. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  cell : string;  (** inherited from the enclosing cell span, or "" *)
  phase : string;  (** the enclosing top-level phase span's name *)
  start : int64;  (** monotonic ns *)
  mutable stop : int64;
}

let now () = Monotonic_clock.now ()
let recording = ref false
let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0

let record ?cell ?phase name f =
  if not !recording then f ()
  else begin
    let up = match !open_spans with s :: _ -> Some s | [] -> None in
    let inherited field own =
      match own with Some v -> v | None -> Option.fold ~none:"" ~some:field up
    in
    incr next_id;
    let s =
      {
        id = !next_id;
        parent = Option.fold ~none:0 ~some:(fun s -> s.id) up;
        name;
        cell = inherited (fun s -> s.cell) cell;
        phase = inherited (fun s -> s.phase) phase;
        start = now ();
        stop = 0L;
      }
    in
    recorded := s :: !recorded;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        open_spans := List.tl !open_spans)
      f
  end

let seconds s = Int64.to_float (Int64.sub s.stop s.start) /. 1e9

(* Self time (duration minus the children's durations) in seconds and
   the number of spans, per (phase, span name). *)
let totals () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt children s.parent) ~default:0. in
      Hashtbl.replace children s.parent (prev +. seconds s))
    !recorded;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = seconds s -. Option.value (Hashtbl.find_opt children s.id) ~default:0. in
      let key = (s.phase, s.name) in
      let t, n = Option.value (Hashtbl.find_opt totals key) ~default:(0., 0) in
      Hashtbl.replace totals key (t +. self, n + 1))
    !recorded;
  fun ~phase name -> Option.value (Hashtbl.find_opt totals (phase, name)) ~default:(0., 0)

(* Chrome trace format: complete ("X") events in microseconds. *)
let write path =
  let origin =
    List.fold_left (fun m s -> if Int64.compare s.start m < 0 then s.start else m)
      Int64.max_int !recorded
  in
  let us t = Json.Num (Int64.to_float (Int64.sub t origin) /. 1e3) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.phase);
        ("ph", Json.Str "X");
        ("ts", us s.start);
        ("dur", Json.Num (Int64.to_float (Int64.sub s.stop s.start) /. 1e3));
        ("pid", Json.Num 1.);
        ("tid", Json.Num 1.);
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("cell", Json.Str s.cell);
            ] );
      ]
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.List (List.rev_map event !recorded));
        ("displayTimeUnit", Json.Str "ms");
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_line doc);
      output_char oc '\n')
