type kind = Span | Instant | Counter

type event = {
  kind : kind;
  cat : string;
  name : string;
  ts : float;
  dur : float;
  value : float;
}

let kind_to_string = function
  | Span -> "span"
  | Instant -> "instant"
  | Counter -> "counter"

module Stream = struct
  type t = { cat : string; name : string; seen : int; kept : int }

  let skipped s = s.seen - s.kept

  (* seen/kept ratio: rescales a sampled aggregate back to the full
     population.  1.0 for an unsampled (or empty) stream. *)
  let scale s = if s.kept <= 0 then 1. else float_of_int s.seen /. float_of_int s.kept
end

let default_capacity = 1 lsl 18

(* Atomics, not globals-with-fences: worker domains spawned after
   [enable] must observe the flag without extra synchronisation. *)
let enabled_flag = Atomic.make false
let capacity_cell = Atomic.make default_capacity
let sample_cell = Atomic.make 1

let[@inline] enabled () = Atomic.get enabled_flag

let enable ?capacity ?sample () =
  (match capacity with
  | None -> ()
  | Some c when c >= 1 -> Atomic.set capacity_cell c
  | Some c -> invalid_arg (Printf.sprintf "Trace.enable: capacity %d" c));
  (match sample with
  | None -> ()
  | Some n when n >= 1 -> Atomic.set sample_cell n
  | Some n -> invalid_arg (Printf.sprintf "Trace.enable: sample %d" n));
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* Per-(cat,name) sampler state; mutable so the hot path updates in
   place without reinserting into the table. *)
type stat = { mutable seen : int; mutable kept : int }

type recorder = {
  (* Ring buffer: [len] live events starting at [start].  [buf] is
     allocated lazily on the first event so an enabled-but-quiet
     domain costs nothing. *)
  mutable buf : event array;
  mutable start : int;
  mutable len : int;
  mutable dropped : int;
  mutable cursor : float;
  mutable streams : (string * string, stat) Hashtbl.t;
}

let null_event =
  { kind = Instant; cat = ""; name = ""; ts = 0.; dur = 0.; value = 0. }

let key =
  Domain.DLS.new_key (fun () ->
      {
        buf = [||];
        start = 0;
        len = 0;
        dropped = 0;
        cursor = 0.;
        streams = Hashtbl.create 16;
      })

let recorder () = Domain.DLS.get key

let record r ev =
  let cap = Atomic.get capacity_cell in
  if Array.length r.buf <> cap then begin
    (* First event on this domain, or capacity changed under us (only
       possible between experiments): start a fresh ring.  Whatever
       was live in the old ring is lost — account for it, don't hide
       it (on the first event [len] is 0, so this charges nothing). *)
    r.dropped <- r.dropped + r.len;
    r.buf <- Array.make cap null_event;
    r.start <- 0;
    r.len <- 0
  end;
  if r.len < cap then begin
    let i = r.start + r.len in
    r.buf.(if i >= cap then i - cap else i) <- ev;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.start) <- ev;
    r.start <- (if r.start + 1 >= cap then 0 else r.start + 1);
    r.dropped <- r.dropped + 1
  end

(* Rotating-phase stride gate: each (cat,name) stream keeps at most one
   event per window of [stride] events, at slot [w mod stride] of
   window [w].  The rotation makes consecutive kept indices step by
   stride+1 — coprime to the stride — so a stream whose durations
   repeat with a period dividing the stride (e.g. fig9's haproxy
   stream, which alternates Docker and X-Container costs) still gets
   every phase sampled evenly; a fixed phase would see only one.
   Window 0 keeps slot 0, so every nonempty stream keeps its first
   event.  With stride 1 (the default) the gate is a single atomic
   load and no counter is touched, so unsampled tracing costs exactly
   what it did before the sampler existed. *)
let keep r ~cat ~name =
  let stride = Atomic.get sample_cell in
  if stride <= 1 then true
  else begin
    let k = (cat, name) in
    let st =
      match Hashtbl.find_opt r.streams k with
      | Some st -> st
      | None ->
          let st = { seen = 0; kept = 0 } in
          Hashtbl.add r.streams k st;
          st
    in
    st.seen <- st.seen + 1;
    let idx = st.seen - 1 in
    let window = idx / stride in
    if idx mod stride = window mod stride then begin
      st.kept <- st.kept + 1;
      true
    end
    else false
  end

let span ~cat ~name ns =
  if enabled () then begin
    let r = recorder () in
    (* The cursor advances whether or not the sampler keeps the event:
       skipping a record must not shift the timestamps of kept ones. *)
    let ts = r.cursor in
    r.cursor <- ts +. ns;
    if keep r ~cat ~name then record r { kind = Span; cat; name; ts; dur = ns; value = 0. }
  end

let span_at ?(value = 0.) ~at ~cat ~name ns =
  if enabled () then begin
    let r = recorder () in
    if keep r ~cat ~name then record r { kind = Span; cat; name; ts = at; dur = ns; value }
  end

let instant ?at ~cat ~name () =
  if enabled () then begin
    let r = recorder () in
    let ts = match at with Some t -> t | None -> r.cursor in
    if keep r ~cat ~name then
      record r { kind = Instant; cat; name; ts; dur = 0.; value = 0. }
  end

let counter ?at ~cat ~name v =
  if enabled () then begin
    let r = recorder () in
    let ts = match at with Some t -> t | None -> r.cursor in
    if keep r ~cat ~name then
      record r { kind = Counter; cat; name; ts; dur = 0.; value = v }
  end

let cursor () = (recorder ()).cursor

let dropped () = (recorder ()).dropped

let streams_of_table tbl =
  Hashtbl.fold
    (fun (cat, name) st acc ->
      { Stream.cat; name; seen = st.seen; kept = st.kept } :: acc)
    tbl []
  |> List.sort (fun (a : Stream.t) (b : Stream.t) ->
         compare (a.cat, a.name) (b.cat, b.name))

let streams () = streams_of_table (recorder ()).streams

let take () =
  let r = recorder () in
  let n = r.len in
  let out =
    if n = 0 then []
    else begin
      let cap = Array.length r.buf in
      List.init n (fun i ->
          let j = r.start + i in
          r.buf.(if j >= cap then j - cap else j))
    end
  in
  r.start <- 0;
  r.len <- 0;
  r.dropped <- 0;
  r.cursor <- 0.;
  Hashtbl.reset r.streams;
  out

type captured = {
  events : event list;
  dropped : int;
  streams : Stream.t list;
  cursor : float;
}

let empty_captured = { events = []; dropped = 0; streams = []; cursor = 0. }

let capture f =
  if not (enabled ()) then (f (), empty_captured)
  else begin
    let r = recorder () in
    let saved_buf = r.buf
    and saved_start = r.start
    and saved_len = r.len
    and saved_dropped = r.dropped
    and saved_cursor = r.cursor
    and saved_streams = r.streams in
    r.buf <- [||];
    r.start <- 0;
    r.len <- 0;
    r.dropped <- 0;
    r.cursor <- 0.;
    r.streams <- Hashtbl.create 16;
    let restore () =
      r.buf <- saved_buf;
      r.start <- saved_start;
      r.len <- saved_len;
      r.dropped <- saved_dropped;
      r.cursor <- saved_cursor;
      r.streams <- saved_streams
    in
    match f () with
    | v ->
        let r = recorder () in
        let streams = streams_of_table r.streams in
        let dropped = r.dropped in
        let cursor = r.cursor in
        let events = take () in
        restore ();
        (v, { events; dropped; streams; cursor })
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        restore ();
        Printexc.raise_with_backtrace e bt
  end

(* Deterministic segment-order merge: segment k's timestamps shift by
   the sum of the synthetic cursors of segments 0..k-1, so analytic
   spans (cursor-placed) form the same monotone timeline one recorder
   running the segments back-to-back would have produced.
   Engine-timestamped events shift with their segment but are not
   separated by it: a segment that never advanced its cursor (a kernel
   run places every span at sim time) moves nothing, so two such
   segments share one time axis and their spans can overlap.  Within a
   segment every relationship is preserved. *)
let concat segments =
  let shift dt c =
    if dt = 0. then c.events
    else
      List.map (fun ev -> { ev with ts = ev.ts +. dt }) c.events
  in
  let merge_streams acc (c : captured) =
    List.fold_left
      (fun acc (s : Stream.t) ->
        let k = (s.Stream.cat, s.Stream.name) in
        match List.assoc_opt k acc with
        | Some (st : Stream.t) ->
            (k, { st with Stream.seen = st.seen + s.seen; kept = st.kept + s.kept })
            :: List.remove_assoc k acc
        | None -> (k, s) :: acc)
      acc c.streams
  in
  let rec go offset ev_acc dropped streams = function
    | [] ->
        {
          events = List.concat (List.rev ev_acc);
          dropped;
          streams =
            List.map snd streams
            |> List.sort (fun (a : Stream.t) (b : Stream.t) ->
                   compare (a.cat, a.name) (b.cat, b.name));
          cursor = offset;
        }
    | c :: rest ->
        go (offset +. c.cursor)
          (shift offset c :: ev_acc)
          (dropped + c.dropped)
          (merge_streams streams c) rest
  in
  go 0. [] 0 [] segments
