let fmt_ns ns =
  let a = Float.abs ns in
  if a < 1e3 then Printf.sprintf "%.0fns" ns
  else if a < 1e6 then Printf.sprintf "%.2fus" (ns /. 1e3)
  else if a < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.3fs" (ns /. 1e9)

(* Collapsed-stack frames are separated by ';' and stacks end at the
   first ' ', so neither may appear inside a frame. *)
let frame_escape s =
  String.map (fun c -> match c with ';' -> ':' | ' ' -> '_' | _ -> c) s

let frame_of (ev : Trace.event) =
  frame_escape ev.cat ^ ";" ^ frame_escape ev.name

(* ---------------- The span forest ---------------- *)

type forest = {
  spans : Trace.event array;
  parent : int array;
  self : float array;
  closing : int array;
}

let sweep evs =
  let spans =
    Array.of_list
      (List.filter
         (fun (ev : Trace.event) -> ev.kind = Trace.Span && ev.dur > 0.)
         evs)
  in
  (* Sort by start time; at equal starts the longer span is the
     parent, and (cat,name) breaks the remaining ties so the forest is
     deterministic regardless of input order. *)
  Array.stable_sort
    (fun (a : Trace.event) (b : Trace.event) ->
      match compare a.ts b.ts with
      | 0 -> (
          match compare b.dur a.dur with
          | 0 -> compare (a.cat, a.name) (b.cat, b.name)
          | c -> c)
      | c -> c)
    spans;
  let n = Array.length spans in
  let parent = Array.make n (-1) in
  let self = Array.map (fun (s : Trace.event) -> s.dur) spans in
  let closing = Array.make n 0 and closed = ref 0 in
  (* The open spans are [top] and its ancestors, innermost first. *)
  let top = ref (-1) in
  let close () =
    closing.(!closed) <- !top;
    incr closed;
    top := parent.(!top)
  in
  Array.iteri
    (fun i (s : Trace.event) ->
      (* Close every open span this one does not nest inside.  Spans
         arrive by start time, so only the end boundary needs checking;
         the relative epsilon absorbs float rounding in the cursor. *)
      let s_end = s.ts +. s.dur in
      while
        !top >= 0
        &&
        let e = spans.(!top).ts +. spans.(!top).dur in
        s_end > e +. ((1e-9 *. Float.abs e) +. 1e-6)
      do
        close ()
      done;
      if !top >= 0 then begin
        parent.(i) <- !top;
        self.(!top) <- self.(!top) -. s.dur
      end;
      top := i)
    spans;
  while !top >= 0 do
    close ()
  done;
  { spans; parent; self; closing }

(* ---------------- Folding span timelines into stacks ---------------- *)

let fold ?root evs =
  let f = sweep evs in
  let paths = Array.make (Array.length f.spans) "" in
  Array.iteri
    (fun i s ->
      let p = f.parent.(i) in
      paths.(i) <- (if p < 0 then frame_of s else paths.(p) ^ ";" ^ frame_of s))
    f.spans;
  let out : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun i ->
      let self = f.self.(i) in
      if self > 0. then
        match Hashtbl.find_opt out paths.(i) with
        | Some r -> r := !r +. self
        | None -> Hashtbl.add out paths.(i) (ref self))
    f.closing;
  let prefix = match root with None -> "" | Some r -> frame_escape r ^ ";" in
  Hashtbl.fold (fun path r acc -> (prefix ^ path, !r) :: acc) out []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_folded tracks =
  let buf = Buffer.create 4096 in
  let rows =
    List.concat_map (fun (name, evs) -> fold ~root:name evs) tracks
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (path, self) ->
      (* Collapsed-stack counts are integers; ours are nanoseconds of
         self-time.  Sub-nanosecond residue rounds away. *)
      if self >= 0.5 then Printf.bprintf buf "%s %.0f\n" path self)
    rows;
  Buffer.contents buf

(* ---------------- Rescaling sampled aggregates ---------------- *)

let rescale ~streams evs =
  if streams = [] then evs
  else begin
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : Trace.Stream.t) ->
        Hashtbl.replace tbl (s.cat, s.name) (Trace.Stream.scale s))
      streams;
    List.map
      (fun (ev : Trace.event) ->
        match ev.kind with
        | Trace.Span -> (
            match Hashtbl.find_opt tbl (ev.cat, ev.name) with
            | Some f when f <> 1. -> { ev with dur = ev.dur *. f }
            | _ -> ev)
        | _ -> ev)
      evs
  end

let render_streams streams =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%-18s %-26s %10s %10s %10s %8s\n" "category" "name"
    "seen" "kept" "skipped" "scale";
  List.iter
    (fun (s : Trace.Stream.t) ->
      Printf.bprintf buf "%-18s %-26s %10d %10d %10d %8.2f\n" s.cat s.name
        s.seen s.kept (Trace.Stream.skipped s) (Trace.Stream.scale s))
    streams;
  if streams = [] then Buffer.add_string buf "(no sampled streams)\n";
  Buffer.contents buf

(* ---------------- Largest-first tallies ---------------- *)

type cell = { mutable n : int; mutable ns : float }
type tally = (string, cell) Hashtbl.t

let tally () : tally = Hashtbl.create 8

let tally_add (t : tally) label n ns =
  match Hashtbl.find_opt t label with
  | Some c ->
      c.n <- c.n + n;
      c.ns <- c.ns +. ns
  | None -> Hashtbl.add t label { n; ns }

let tally_rows (t : tally) =
  Hashtbl.fold (fun label c l -> (label, c.n, c.ns) :: l) t []
  |> List.sort (fun (la, _, a) (lb, _, b) ->
         match compare b a with 0 -> compare la lb | c -> c)

(* ---------------- Exact self-time attribution ---------------- *)

type attributed_request = {
  req_id : int;
  req_name : string;
  req_start : float;
  req_total : float;
  req_self : float;
  req_mech : (string * int * float) list;
  req_nested : int;
  req_nested_ns : float;
}

type attribution = {
  areqs : attributed_request list;
  unattributed_ns : float;
  total_self_ns : float;
}

(* A request's accumulator while the forest is read. *)
type acc = {
  req : int;  (* forest index of the request span, -1 for none *)
  mech : tally;
  mutable nested : int;
  mutable nested_ns : float;
}

let attribute evs =
  let f = sweep evs in
  let new_acc req =
    { req; mech = tally (); nested = 0; nested_ns = 0. }
  in
  (* [acc.(i)] is request [i]'s own accumulator, and for any other span
     its innermost enclosing request's. *)
  let none = new_acc (-1) in
  let acc = Array.make (Array.length f.spans) none in
  let accs = ref [] in
  (* Root durations and nested-request charges accrue as spans open,
     self-times as they close, children before parents.  Every
     descendant's self-time telescopes out of its root's duration, so
     the buckets sum exactly to the root durations — which is why
     negative self-time (overlapping siblings) is kept, not dropped the
     way [fold] drops it. *)
  let total_self = ref 0. in
  Array.iteri
    (fun i (s : Trace.event) ->
      let p = f.parent.(i) in
      if p < 0 then total_self := !total_self +. s.dur;
      let owner = if p < 0 then none else acc.(p) in
      if s.cat <> "request" then acc.(i) <- owner
      else begin
        let a = new_acc i in
        acc.(i) <- a;
        accs := a :: !accs;
        if owner.req >= 0 then begin
          owner.nested <- owner.nested + 1;
          owner.nested_ns <- owner.nested_ns +. s.dur
        end
      end)
    f.spans;
  let unattributed = ref 0. in
  Array.iter
    (fun i ->
      let s = f.spans.(i) and a = acc.(i) in
      if s.cat = "request" then ()
      else if a.req < 0 then unattributed := !unattributed +. f.self.(i)
      else tally_add a.mech s.cat 1 f.self.(i))
    f.closing;
  let areqs =
    List.rev_map
      (fun a ->
        let s = f.spans.(a.req) in
        {
          req_id = int_of_float s.value;
          req_name = s.name;
          req_start = s.ts;
          req_total = s.dur;
          req_self = f.self.(a.req);
          req_mech = tally_rows a.mech;
          req_nested = a.nested;
          req_nested_ns = a.nested_ns;
        })
      !accs
    |> List.sort (fun a b ->
           match compare b.req_total a.req_total with
           | 0 -> (
               match compare a.req_start b.req_start with
               | 0 -> compare a.req_id b.req_id
               | c -> c)
           | c -> c)
  in
  { areqs; unattributed_ns = !unattributed; total_self_ns = !total_self }

let request_totals att = List.map (fun r -> r.req_total) att.areqs

(* ---------------- Tail cuts over an attribution ---------------- *)

type tail = {
  label : string;
  pct : float;
  cut_ns : float;
  n_requests : int;
  n_tail : int;
  tail : attributed_request list;
  tail_mech : (string * int * float) list;
  tail_self_ns : float;
  tail_total_ns : float;
}

let self_frame = "(request-self)"
let nested_frame = "(nested-request)"

let tail_of ?(label = "") ~pct ~cut_ns att =
  let tail = List.filter (fun r -> r.req_total >= cut_ns) att.areqs in
  let mech = tally () in
  List.iter
    (fun r ->
      List.iter (fun (cat, n, ns) -> tally_add mech cat n ns) r.req_mech)
    tail;
  {
    label;
    pct;
    cut_ns;
    n_requests = List.length att.areqs;
    n_tail = List.length tail;
    tail;
    tail_mech = tally_rows mech;
    tail_self_ns = List.fold_left (fun a r -> a +. r.req_self) 0. tail;
    tail_total_ns = List.fold_left (fun a r -> a +. r.req_total) 0. tail;
  }

(* One request's rows — mechanisms, nested requests, own window time —
   each with its share of the request; the rows sum to its duration. *)
let render_request buf r =
  Printf.bprintf buf "#%d %s: %s end-to-end (starts at %s)\n" r.req_id
    r.req_name (fmt_ns r.req_total) (fmt_ns r.req_start);
  let pct ns = if r.req_total > 0. then 100. *. ns /. r.req_total else 0. in
  let row label count ns =
    Printf.bprintf buf "  %-18s x%-5d %10s %6.1f%%\n" label count (fmt_ns ns)
      (pct ns)
  in
  List.iter (fun (cat, count, ns) -> row cat count ns) r.req_mech;
  if r.req_nested > 0 then row nested_frame r.req_nested r.req_nested_ns;
  Printf.bprintf buf "  %-18s       %10s %6.1f%%\n" "(self)"
    (fmt_ns r.req_self) (pct r.req_self)

let render_tail ?(slowest = 0) t =
  let buf = Buffer.create 1024 in
  if t.label <> "" then Printf.bprintf buf "tail attribution: %s\n" t.label;
  Printf.bprintf buf "p%g cut at %s: %d of %d requests at or above\n" t.pct
    (fmt_ns t.cut_ns) t.n_tail t.n_requests;
  if t.n_tail = 0 then Buffer.add_string buf "(no requests above the cut)\n"
  else begin
    let per = float_of_int t.n_tail in
    let attributed =
      t.tail_self_ns
      +. List.fold_left (fun a (_, _, ns) -> a +. ns) 0. t.tail_mech
    in
    let share ns = if attributed > 0. then 100. *. ns /. attributed else 0. in
    Printf.bprintf buf "%-18s %8s %12s %12s %7s\n" "mechanism" "spans" "total"
      "mean/req" "share";
    List.iter
      (fun (cat, n, ns) ->
        Printf.bprintf buf "%-18s %8d %12s %12s %6.1f%%\n" cat n (fmt_ns ns)
          (fmt_ns (ns /. per))
          (share ns))
      t.tail_mech;
    Printf.bprintf buf "%-18s %8s %12s %12s %6.1f%%\n" self_frame ""
      (fmt_ns t.tail_self_ns)
      (fmt_ns (t.tail_self_ns /. per))
      (share t.tail_self_ns);
    Printf.bprintf buf "tail window time: %s total, %s mean per request\n"
      (fmt_ns t.tail_total_ns)
      (fmt_ns (t.tail_total_ns /. per));
    if slowest > 0 then begin
      Printf.bprintf buf "\nslowest %d tail requests:\n" (min slowest t.n_tail);
      List.iteri (fun i r -> if i < slowest then render_request buf r) t.tail
    end
  end;
  Buffer.contents buf

let render_slowest ?(k = 3) evs =
  match (attribute evs).areqs with
  | [] -> "(no request spans in trace)\n"
  | areqs ->
      let buf = Buffer.create 1024 in
      let n = List.length areqs in
      Printf.bprintf buf "slowest %d of %d requests:\n" (min k n) n;
      List.iteri (fun i r -> if i < k then render_request buf r) areqs;
      Buffer.contents buf
