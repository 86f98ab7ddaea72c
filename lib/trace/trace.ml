type kind = Span | Instant | Counter

(* One recorder's columns, handed to its capture as they are.  A row's
   kind is a byte: 0 span, 1 instant, 2 counter. *)
type segment = {
  kinds : Bytes.t;
  cats : string array;
  names : string array;
  starts : Float.Array.t;
  durs : Float.Array.t;
  values : Float.Array.t;
}

(* Three words: a captured event costs its view and its cons cell. *)
type event = { seg : segment; i : int }

let columns n =
  {
    kinds = Bytes.create n;
    cats = Array.make n "";
    names = Array.make n "";
    starts = Float.Array.create n;
    durs = Float.Array.create n;
    values = Float.Array.create n;
  }

let no_rows = columns 0

let kind_code = function Span -> '\000' | Instant -> '\001' | Counter -> '\002'

let kind ev =
  match Bytes.unsafe_get ev.seg.kinds ev.i with
  | '\000' -> Span
  | '\001' -> Instant
  | _ -> Counter

let cat ev = Array.unsafe_get ev.seg.cats ev.i
let name ev = Array.unsafe_get ev.seg.names ev.i
let ts ev = Float.Array.unsafe_get ev.seg.starts ev.i
let dur ev = Float.Array.unsafe_get ev.seg.durs ev.i
let value ev = Float.Array.unsafe_get ev.seg.values ev.i

let make ~kind ~cat ~name ~ts ~dur ~value =
  let seg = columns 1 in
  Bytes.unsafe_set seg.kinds 0 (kind_code kind);
  seg.cats.(0) <- cat;
  seg.names.(0) <- name;
  Float.Array.set seg.starts 0 ts;
  Float.Array.set seg.durs 0 dur;
  Float.Array.set seg.values 0 value;
  { seg; i = 0 }

let is_span ev =
  Bytes.unsafe_get ev.seg.kinds ev.i = '\000'
  && Float.Array.unsafe_get ev.seg.durs ev.i > 0.

let span_columns evs =
  let n = List.fold_left (fun n ev -> if is_span ev then n + 1 else n) 0 evs in
  let spans = Array.make n { seg = no_rows; i = 0 } in
  let starts = Array.make n 0. and durs = Array.make n 0. in
  let rec fill k = function
    | [] -> ()
    | ev :: rest ->
        if is_span ev then begin
          spans.(k) <- ev;
          starts.(k) <- Float.Array.unsafe_get ev.seg.starts ev.i;
          durs.(k) <- Float.Array.unsafe_get ev.seg.durs ev.i;
          fill (k + 1) rest
        end
        else fill k rest
  in
  fill 0 evs;
  (spans, starts, durs)

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

let[@inline] enabled () = Atomic.get enabled_flag

let enable ?capacity () =
  (match capacity with
  | None -> ()
  | Some c when c >= 1 -> Atomic.set capacity_cell c
  | Some c -> invalid_arg (Printf.sprintf "Trace.enable: capacity %d" c));
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* Per-(cat,name) sampler state; mutable so the hot path updates in
   place without reinserting into the table. *)
type stat = { mutable seen : int; mutable kept : int }

(* A domain's recorder: [len] live rows of [cols] starting at [start].
   The columns start empty, are first made on the first event, and
   double while they are smaller than [cap]; at [cap] they are a ring,
   and [start] moves only then.  [sample] is the capture's stride. *)
type state = {
  sample : int;
  mutable cols : segment;
  mutable cap : int;  (* the capacity [cols] grow to; 0 before the first event *)
  mutable start : int;
  mutable len : int;
  mutable dropped : int;
  mutable cursor : float;
  streams : (string * string, stat) Hashtbl.t;
}

let fresh sample =
  { sample; cols = no_rows; cap = 0; start = 0; len = 0; dropped = 0; cursor = 0.;
    streams = Hashtbl.create 16 }

(* [capture] swaps the whole state and puts it back afterwards. *)
let key = Domain.DLS.new_key (fun () -> ref (fresh 1))

let state () = !(Domain.DLS.get key)

let first_rows = 16

let grow st n =
  let c = st.cols and d = columns n and len = st.len in
  Bytes.blit c.kinds 0 d.kinds 0 len;
  Array.blit c.cats 0 d.cats 0 len;
  Array.blit c.names 0 d.names 0 len;
  Float.Array.blit c.starts 0 d.starts 0 len;
  Float.Array.blit c.durs 0 d.durs 0 len;
  Float.Array.blit c.values 0 d.values 0 len;
  st.cols <- d

(* The row the next event goes to, with its kind, cat and name written.
   The caller writes the three floats itself, so none is passed boxed. *)
let row st k ~cat ~name =
  let cap = Atomic.get capacity_cell in
  if st.cap <> cap then begin
    (* First event in this state, or the capacity changed under us
       (only possible between experiments): start fresh columns.
       Whatever was live is lost — account for it, don't hide it (on
       the first event [len] is 0, so this charges nothing). *)
    st.dropped <- st.dropped + st.len;
    st.cols <- columns (min cap first_rows);
    st.cap <- cap;
    st.start <- 0;
    st.len <- 0
  end;
  let size = Bytes.length st.cols.kinds in
  if st.len = size && size < cap then grow st (min cap (2 * size));
  let i =
    if st.len < cap then begin
      let i = st.len in
      st.len <- i + 1;
      i
    end
    else begin
      let i = st.start in
      st.start <- (if i + 1 >= cap then 0 else i + 1);
      st.dropped <- st.dropped + 1;
      i
    end
  in
  let c = st.cols in
  Bytes.unsafe_set c.kinds i k;
  Array.unsafe_set c.cats i cat;
  Array.unsafe_set c.names i name;
  i

(* Rotating-phase stride gate: each (cat,name) stream keeps at most one
   event per window of [stride] events, at slot [w mod stride] of
   window [w].  The rotation makes consecutive kept indices step by
   stride+1 — coprime to the stride — so a stream whose durations
   repeat with a period dividing the stride (e.g. fig9's haproxy
   stream, which alternates Docker and X-Container costs) still gets
   every phase sampled evenly; a fixed phase would see only one.
   Window 0 keeps slot 0, so every nonempty stream keeps its first
   event.  With stride 1 (the default) the gate is a single field
   load and no counter is touched, so unsampled tracing costs exactly
   what it did before the sampler existed. *)
let keep st ~cat ~name =
  let stride = st.sample in
  if stride <= 1 then true
  else begin
    let k = (cat, name) in
    let s =
      match Hashtbl.find_opt st.streams k with
      | Some s -> s
      | None ->
          let s = { seen = 0; kept = 0 } in
          Hashtbl.add st.streams k s;
          s
    in
    s.seen <- s.seen + 1;
    let idx = s.seen - 1 in
    let window = idx / stride in
    if idx mod stride = window mod stride then begin
      s.kept <- s.kept + 1;
      true
    end
    else false
  end

let span ~cat ~name ns =
  if enabled () then begin
    let st = state () in
    (* The cursor advances whether or not the sampler keeps the event:
       skipping a record must not shift the timestamps of kept ones. *)
    let at = st.cursor in
    st.cursor <- at +. ns;
    if keep st ~cat ~name then begin
      let i = row st '\000' ~cat ~name in
      let c = st.cols in
      Float.Array.unsafe_set c.starts i at;
      Float.Array.unsafe_set c.durs i ns;
      Float.Array.unsafe_set c.values i 0.
    end
  end

let span_at ~id ~cat ~name t =
  if enabled () then begin
    let st = state () in
    if keep st ~cat ~name then begin
      let i = row st '\000' ~cat ~name in
      let c = st.cols in
      Float.Array.unsafe_set c.starts i t.(0);
      Float.Array.unsafe_set c.durs i t.(1);
      Float.Array.unsafe_set c.values i (float_of_int id)
    end
  end

let point k ?at ~cat ~name v =
  if enabled () then begin
    let st = state () in
    let at = match at with Some t -> t | None -> st.cursor in
    if keep st ~cat ~name then begin
      let i = row st k ~cat ~name in
      let c = st.cols in
      Float.Array.unsafe_set c.starts i at;
      Float.Array.unsafe_set c.durs i 0.;
      Float.Array.unsafe_set c.values i v
    end
  end

let instant ?at ~cat ~name () = point '\001' ?at ~cat ~name 0.
let counter ?at ~cat ~name v = point '\002' ?at ~cat ~name v

let cursor () = (state ()).cursor

let streams_of_table tbl =
  Hashtbl.fold
    (fun (cat, name) (s : stat) acc ->
      { Stream.cat; name; seen = s.seen; kept = s.kept } :: acc)
    tbl []
  |> List.sort (fun (a : Stream.t) (b : Stream.t) ->
         compare (a.cat, a.name) (b.cat, b.name))

type captured = {
  events : event list;
  dropped : int;
  streams : Stream.t list;
  cursor : float;
}

let empty_captured = { events = []; dropped = 0; streams = []; cursor = 0. }

(* The state's columns become the capture's segment as they are; the
   views run over the ring in record order. *)
let captured_of st =
  let seg = st.cols in
  let size = Bytes.length seg.kinds in
  let rec views k acc =
    if k < 0 then acc
    else begin
      let j = st.start + k in
      views (k - 1) ({ seg; i = (if j >= size then j - size else j) } :: acc)
    end
  in
  {
    events = views (st.len - 1) [];
    dropped = st.dropped;
    streams = streams_of_table st.streams;
    cursor = st.cursor;
  }

let capture ?(sample = 1) f =
  if sample < 1 then invalid_arg (Printf.sprintf "Trace.capture: sample %d" sample);
  if not (enabled ()) then (f (), empty_captured)
  else begin
    let cell = Domain.DLS.get key in
    let saved = !cell in
    cell := fresh sample;
    match f () with
    | v ->
        let st = !cell in
        cell := saved;
        (v, captured_of st)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        cell := saved;
        Printexc.raise_with_backtrace e bt
  end

(* A copy of [seg] with every start moved by [dt]. *)
let shifted dt seg =
  let n = Float.Array.length seg.starts in
  let starts = Float.Array.create n in
  for k = 0 to n - 1 do
    Float.Array.unsafe_set starts k (Float.Array.unsafe_get seg.starts k +. dt)
  done;
  { seg with starts }

(* The views of one segment come in runs, so each segment is copied
   once, looked up by identity. *)
let shift dt events =
  if dt = 0. then events
  else begin
    let copies = ref [] in
    let copy seg =
      match !copies with
      | (s, c) :: _ when s == seg -> c
      | l -> (
          match List.assq_opt seg l with
          | Some c -> c
          | None ->
              let c = shifted dt seg in
              copies := (seg, c) :: l;
              c)
    in
    List.map (fun ev -> { seg = copy ev.seg; i = ev.i }) events
  end

(* The latest end of [events], in their own frame; [0.] for none. *)
let latest_end events =
  let last = ref 0. in
  List.iter
    (fun ev ->
      let e = ts ev +. dur ev in
      if e > !last then last := e)
    events;
  !last

(* Deterministic segment-order merge on one time axis: segment k starts
   where segment k-1's cursor ends, or past its latest event if that
   ends later.  A cursor-placed span ends at most at its segment's
   cursor, so a track of analytic spans forms the same monotone
   timeline one recorder running the segments back-to-back would have
   produced, bit for bit.  A kernel run places its spans at sim time
   and past it, on its bundle lane, and never moves its cursor: the
   next run then starts past its last span, so no run's spans fall
   inside another run's requests.  Within a segment every relationship
   is preserved.  The result's cursor is where a next segment would
   start, which makes [concat] associative. *)
let concat segments =
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
        go
          (offset +. Float.max c.cursor (latest_end c.events))
          (shift offset c.events :: ev_acc)
          (dropped + c.dropped)
          (merge_streams streams c) rest
  in
  go 0. [] 0 [] segments
