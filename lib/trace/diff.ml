type row = {
  cat : string;
  a_count : int;
  a_ns : float;
  b_count : int;
  b_ns : float;
}

let delta r = r.b_ns -. r.a_ns

type report = { rows : row list; a_total_ns : float; b_total_ns : float }

(* Aggregate one side by an arbitrary key. *)
let totals_by key evs =
  let tbl : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
  let total = ref 0. in
  List.iter
    (fun ev ->
      let ns = match Trace.kind ev with Trace.Span -> Trace.dur ev | _ -> 0. in
      total := !total +. ns;
      match Hashtbl.find_opt tbl (key ev) with
      | Some r ->
          let c, t = !r in
          r := (c + 1, t +. ns)
      | None -> Hashtbl.add tbl (key ev) (ref (1, ns)))
    evs;
  (tbl, !total)

let rows_of ~key ~a ~b =
  let ta, a_total = totals_by key a in
  let tb, b_total = totals_by key b in
  let keys =
    let seen = Hashtbl.create 16 in
    let collect tbl =
      Hashtbl.iter (fun k _ -> Hashtbl.replace seen k ()) tbl
    in
    collect ta;
    collect tb;
    Hashtbl.fold (fun k () acc -> k :: acc) seen []
  in
  let lookup tbl k =
    match Hashtbl.find_opt tbl k with Some r -> !r | None -> (0, 0.)
  in
  let rows =
    List.map
      (fun k ->
        let a_count, a_ns = lookup ta k in
        let b_count, b_ns = lookup tb k in
        { cat = k; a_count; a_ns; b_count; b_ns })
      keys
    |> List.sort (fun x y ->
           match compare (Float.abs (delta y)) (Float.abs (delta x)) with
           | 0 -> compare x.cat y.cat
           | c -> c)
  in
  (rows, a_total, b_total)

let diff ?(a_streams = []) ?(b_streams = []) ~a ~b () =
  (* Sampled traces carry only every n-th event per stream; rescaling
     by the exact kept/seen counters first makes a sampled side
     comparable to an unsampled (or differently-sampled) one. *)
  let a = Profile.rescale ~streams:a_streams a in
  let b = Profile.rescale ~streams:b_streams b in
  let rows, a_total_ns, b_total_ns = rows_of ~key:Trace.cat ~a ~b in
  { rows; a_total_ns; b_total_ns }

let names_in ?(a_streams = []) ?(b_streams = []) ~cat ~a ~b () =
  let a = Profile.rescale ~streams:a_streams a in
  let b = Profile.rescale ~streams:b_streams b in
  let only evs = List.filter (fun ev -> Trace.cat ev = cat) evs in
  let rows, _, _ = rows_of ~key:Trace.name ~a:(only a) ~b:(only b) in
  rows

let abs_delta_total report =
  List.fold_left (fun acc r -> acc +. Float.abs (delta r)) 0. report.rows

let dominant report = match report.rows with [] -> None | r :: _ -> Some r

let dominant_share report =
  match dominant report with
  | None -> 0.
  | Some r ->
      let total = abs_delta_total report in
      if total <= 0. then 0. else Float.abs (delta r) /. total

let render ?(a_label = "A") ?(b_label = "B") ?(a_streams = []) ?(b_streams = [])
    ~a ~b () =
  let report = diff ~a_streams ~b_streams ~a ~b () in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "trace diff: A = %s, B = %s\n" a_label b_label;
  Printf.bprintf buf "%-18s %10s %12s %10s %12s %12s\n" "category"
    "A events" "A total" "B events" "B total" "delta(B-A)";
  List.iter
    (fun r ->
      Printf.bprintf buf "%-18s %10d %12s %10d %12s %12s\n" r.cat r.a_count
        (Export.fmt_ns r.a_ns) r.b_count (Export.fmt_ns r.b_ns)
        (Export.fmt_ns (delta r)))
    report.rows;
  Printf.bprintf buf "total traced span time: A %s, B %s"
    (Export.fmt_ns report.a_total_ns)
    (Export.fmt_ns report.b_total_ns);
  (if report.b_total_ns > 0. && report.a_total_ns > 0. then
     let ratio = report.a_total_ns /. report.b_total_ns in
     if ratio >= 1. then Printf.bprintf buf " (B %.1fx cheaper)" ratio
     else Printf.bprintf buf " (A %.1fx cheaper)" (1. /. ratio));
  Buffer.add_char buf '\n';
  (match dominant report with
  | None -> Buffer.add_string buf "(no events on either side)\n"
  | Some r when Float.abs (delta r) <= 0. ->
      Buffer.add_string buf "traces agree in every category\n"
  | Some r ->
      Printf.bprintf buf
        "dominant delta: %s (%.0f%% of the absolute per-category delta)\n"
        r.cat
        (100. *. dominant_share report);
      let detail = names_in ~a_streams ~b_streams ~cat:r.cat ~a ~b () in
      List.iter
        (fun n ->
          Printf.bprintf buf "  %-24s %10d %12s %10d %12s %12s\n" n.cat
            n.a_count (Export.fmt_ns n.a_ns) n.b_count (Export.fmt_ns n.b_ns)
            (Export.fmt_ns (delta n)))
        detail);
  Buffer.contents buf

(* ---------------- Tail diffs ---------------- *)

type tail_row = {
  mech : string;
  a_spans : int;
  a_mean_ns : float;
  b_spans : int;
  b_mean_ns : float;
}

let tail_delta r = r.b_mean_ns -. r.a_mean_ns

type tail_report = {
  tail_rows : tail_row list;
  a_tail : Profile.tail;
  b_tail : Profile.tail;
}

(* Tail sizes differ between the two sides (each side gets its own
   percentile cut), so the comparable quantity is mean ns per tail
   request, not the raw aggregate. *)
let diff_tails ~(a : Profile.tail) ~(b : Profile.tail) =
  let mean (t : Profile.tail) ns = ns /. float_of_int (Stdlib.max 1 t.n_tail) in
  let rows_with_self (t : Profile.tail) =
    t.tail_mech @ [ (Profile.self_frame, t.n_tail, t.tail_self_ns) ]
  in
  let lookup t mech =
    match List.find_opt (fun (c, _, _) -> c = mech) (rows_with_self t) with
    | Some (_, n, ns) -> (n, mean t ns)
    | None -> (0, 0.)
  in
  let keys =
    let seen = Hashtbl.create 16 in
    List.iter (fun (c, _, _) -> Hashtbl.replace seen c ()) (rows_with_self a);
    List.iter (fun (c, _, _) -> Hashtbl.replace seen c ()) (rows_with_self b);
    Hashtbl.fold (fun k () acc -> k :: acc) seen []
  in
  let tail_rows =
    List.map
      (fun mech ->
        let a_spans, a_mean_ns = lookup a mech in
        let b_spans, b_mean_ns = lookup b mech in
        { mech; a_spans; a_mean_ns; b_spans; b_mean_ns })
      keys
    |> List.sort (fun x y ->
           match
             compare (Float.abs (tail_delta y)) (Float.abs (tail_delta x))
           with
           | 0 -> compare x.mech y.mech
           | c -> c)
  in
  { tail_rows; a_tail = a; b_tail = b }

let tail_abs_delta_total report =
  List.fold_left (fun acc r -> acc +. Float.abs (tail_delta r)) 0. report.tail_rows

let dominant_tail report =
  match report.tail_rows with [] -> None | r :: _ -> Some r

let dominant_tail_share report =
  match dominant_tail report with
  | None -> 0.
  | Some r ->
      let total = tail_abs_delta_total report in
      if total <= 0. then 0. else Float.abs (tail_delta r) /. total

let render_tails ~(a : Profile.tail) ~(b : Profile.tail) =
  let report = diff_tails ~a ~b in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "tail diff (p%g): A = %s, B = %s\n" a.Profile.pct
    a.Profile.label b.Profile.label;
  let side name (t : Profile.tail) =
    let mean =
      if t.n_tail > 0 then t.tail_total_ns /. float_of_int t.n_tail else 0.
    in
    Printf.bprintf buf
      "%s: %d of %d requests at or above %s; mean tail latency %s\n" name
      t.n_tail t.n_requests
      (Export.fmt_ns t.cut_ns)
      (Export.fmt_ns mean)
  in
  side "A" a;
  side "B" b;
  Printf.bprintf buf "%-18s %8s %12s %8s %12s %12s\n" "mechanism" "A spans"
    "A mean/req" "B spans" "B mean/req" "delta(B-A)";
  List.iter
    (fun r ->
      Printf.bprintf buf "%-18s %8d %12s %8d %12s %12s\n" r.mech r.a_spans
        (Export.fmt_ns r.a_mean_ns)
        r.b_spans
        (Export.fmt_ns r.b_mean_ns)
        (Export.fmt_ns (tail_delta r)))
    report.tail_rows;
  (match dominant_tail report with
  | None -> Buffer.add_string buf "(no tail on either side)\n"
  | Some r when Float.abs (tail_delta r) <= 0. ->
      Buffer.add_string buf "tails agree in every mechanism\n"
  | Some r ->
      Printf.bprintf buf
        "dominant tail delta: %s (%.0f%% of the absolute per-mechanism delta)\n"
        r.mech
        (100. *. dominant_tail_share report));
  Buffer.contents buf
