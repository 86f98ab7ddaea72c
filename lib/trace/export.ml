type track = string * Trace.event list

let fmt_ns = Profile.fmt_ns

(* Categories and names are low-cardinality identifiers we control;
   sanitising (rather than quoting) keeps both formats line-oriented
   and trivially parseable. *)
let sanitize s =
  String.map
    (fun c ->
      match c with '"' | '\\' | ',' | '\n' | '\r' -> ';' | _ -> c)
    s

(* ---------------- Chrome trace-event JSON ---------------- *)

let chrome_event buf ~tid ev =
  let us v = v /. 1e3 in
  let cat = sanitize (Trace.cat ev) and name = sanitize (Trace.name ev) in
  match Trace.kind ev with
  | Trace.Span ->
      (* Spans normally carry no value; request spans use it for the
         request id, which riders like [Profile.attribute] (and a human
         in the Perfetto UI) read back from args. *)
      let value = Trace.value ev in
      if value <> 0. then
        Printf.bprintf buf
          "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.6f,\"dur\":%.6f,\"args\":{\"value\":%.6f}}"
          tid cat name (us (Trace.ts ev)) (us (Trace.dur ev)) value
      else
        Printf.bprintf buf
          "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.6f,\"dur\":%.6f}"
          tid cat name (us (Trace.ts ev)) (us (Trace.dur ev))
  | Trace.Instant ->
      Printf.bprintf buf
        "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.6f}"
        tid cat name (us (Trace.ts ev))
  | Trace.Counter ->
      Printf.bprintf buf
        "{\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.6f,\"args\":{\"value\":%.6f}}"
        tid cat name (us (Trace.ts ev)) (Trace.value ev)

let to_chrome ?(dropped = 0) tracks =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  let emit f =
    if !first then first := false else Buffer.add_string buf ",\n";
    f ()
  in
  List.iteri
    (fun i (name, _) ->
      emit (fun () ->
          Printf.bprintf buf
            "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
            (i + 1) (sanitize name)))
    tracks;
  List.iteri
    (fun i (_, evs) ->
      List.iter (fun ev -> emit (fun () -> chrome_event buf ~tid:(i + 1) ev)) evs)
    tracks;
  Printf.bprintf buf
    "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":%d}}\n" dropped;
  Buffer.contents buf

(* ---------------- CSV ---------------- *)

let csv_header = "track,kind,cat,name,ts_ns,dur_ns,value"

let to_csv tracks =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun (track, evs) ->
      let track = sanitize track in
      List.iter
        (fun ev ->
          Printf.bprintf buf "%s,%s,%s,%s,%.3f,%.3f,%.6f\n" track
            (Trace.kind_to_string (Trace.kind ev))
            (sanitize (Trace.cat ev)) (sanitize (Trace.name ev)) (Trace.ts ev) (Trace.dur ev)
            (Trace.value ev))
        evs)
    tracks;
  Buffer.contents buf

let to_folded = Profile.to_folded

let to_file ?dropped ~path tracks =
  let data =
    if Filename.check_suffix path ".csv" then to_csv tracks
    else if Filename.check_suffix path ".folded" then to_folded tracks
    else to_chrome ?dropped tracks
  in
  let oc = open_out path in
  output_string oc data;
  close_out oc

(* ---------------- Parsing (own formats only) ---------------- *)

let lines_of s = String.split_on_char '\n' s

let events_of_csv s =
  let parse_line lineno line acc =
    if line = "" || line = csv_header then Ok acc
    else
      match String.split_on_char ',' line with
      | [ _track; kind; cat; name; ts; dur; value ] -> (
          let kind =
            match kind with
            | "span" -> Some Trace.Span
            | "instant" -> Some Trace.Instant
            | "counter" -> Some Trace.Counter
            | _ -> None
          in
          match
            (kind, float_of_string_opt ts, float_of_string_opt dur,
             float_of_string_opt value)
          with
          | Some kind, Some ts, Some dur, Some value ->
              Ok (Trace.make ~kind ~cat ~name ~ts ~dur ~value :: acc)
          | _ -> Error (Printf.sprintf "csv line %d: bad field" lineno))
      | _ -> Error (Printf.sprintf "csv line %d: expected 7 fields" lineno)
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line lineno line acc with
        | Ok acc -> go (lineno + 1) acc rest
        | Error _ as e -> e)
  in
  go 1 [] (lines_of s)

(* Naive field extraction over the one-event-per-line JSON this module
   itself writes; no general JSON parser needed (or allowed — no new
   dependencies). *)
let find_string_field line key =
  let pat = Printf.sprintf "\"%s\":\"" key in
  let plen = String.length pat and llen = String.length line in
  let rec search i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then begin
      let start = i + plen in
      match String.index_from_opt line start '"' with
      | Some stop -> Some (String.sub line start (stop - start))
      | None -> None
    end
    else search (i + 1)
  in
  search 0

let find_float_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and llen = String.length line in
  let rec search i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then begin
      let start = i + plen in
      let stop = ref start in
      while
        !stop < llen
        && (match line.[!stop] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.sub line start (!stop - start))
    end
    else search (i + 1)
  in
  search 0

let events_of_chrome s =
  let parse_line lineno line acc =
    match find_string_field line "ph" with
    | None | Some "M" -> Ok acc
    | Some ph -> (
        let kind =
          match ph with
          | "X" -> Some Trace.Span
          | "i" -> Some Trace.Instant
          | "C" -> Some Trace.Counter
          | _ -> None
        in
        match kind with
        | None -> Ok acc
        | Some kind -> (
            let cat = Option.value ~default:"" (find_string_field line "cat") in
            let name =
              Option.value ~default:"" (find_string_field line "name")
            in
            match find_float_field line "ts" with
            | None -> Error (Printf.sprintf "json line %d: missing ts" lineno)
            | Some ts_us ->
                let dur =
                  match find_float_field line "dur" with
                  | Some d -> d *. 1e3
                  | None -> 0.
                in
                let value =
                  Option.value ~default:0. (find_float_field line "value")
                in
                Ok
                  (Trace.make ~kind ~cat ~name ~ts:(ts_us *. 1e3) ~dur ~value
                  :: acc)))
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line lineno line acc with
        | Ok acc -> go (lineno + 1) acc rest
        | Error _ as e -> e)
  in
  go 1 [] (lines_of s)

let events_of_string s =
  let rec first_nonspace i =
    if i >= String.length s then None
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first_nonspace (i + 1)
      | c -> Some c
  in
  match first_nonspace 0 with
  | None -> Ok []
  | Some '{' -> events_of_chrome s
  | Some _ -> events_of_csv s

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> events_of_string data
  | exception Sys_error msg -> Error msg
  | exception End_of_file ->
      (* [in_channel_length] raced with a writer truncating the file;
         a short read is data corruption, not a crash. *)
      Error (path ^ ": truncated file")

(* ---------------- Tails CSV ---------------- *)

(* One row per (tail, mechanism); the five metadata fields repeat on
   every row so the file stays line-oriented and trivially groupable.
   Two pseudo-mechanism rows close each tail: [(request-self)] carries
   the uncovered window time and [(window-total)] the end-to-end sum —
   a parser can (and does) treat their absence as truncation. *)

let tails_csv_header = "label,pct,cut_ns,n_requests,n_tail,mech,spans,self_ns"
let total_frame = "(window-total)"

let to_tails_csv (tails : Profile.tail list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf tails_csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun (t : Profile.tail) ->
      let label = sanitize t.label in
      let row mech spans ns =
        Printf.bprintf buf "%s,%.3f,%.3f,%d,%d,%s,%d,%.3f\n" label t.pct
          t.cut_ns t.n_requests t.n_tail (sanitize mech) spans ns
      in
      List.iter (fun (cat, n, ns) -> row cat n ns) t.tail_mech;
      row Profile.self_frame 0 t.tail_self_ns;
      row total_frame 0 t.tail_total_ns)
    tails;
  Buffer.contents buf

let tails_to_file ~path tails =
  let oc = open_out path in
  output_string oc (to_tails_csv tails);
  close_out oc

(* Mutable per-tail accumulator while grouping parsed rows. *)
type tail_group = {
  mutable g_mech : (string * int * float) list; (* reversed *)
  mutable g_self : float option;
  mutable g_total : float option;
}

let tails_of_string s =
  (* Group rows by their metadata key in encounter order. *)
  let groups = ref [] in
  let group_of key =
    match List.assoc_opt key !groups with
    | Some g -> g
    | None ->
        let g = { g_mech = []; g_self = None; g_total = None } in
        groups := (key, g) :: !groups;
        g
  in
  let parse_line lineno line =
    if line = "" || line = tails_csv_header then Ok ()
    else
      match String.split_on_char ',' line with
      | [ label; pct; cut; nreq; ntail; mech; spans; ns ] -> (
          match
            ( float_of_string_opt pct, float_of_string_opt cut,
              int_of_string_opt nreq, int_of_string_opt ntail,
              int_of_string_opt spans, float_of_string_opt ns )
          with
          | Some pct, Some cut, Some nreq, Some ntail, Some spans, Some ns ->
              let g = group_of (label, pct, cut, nreq, ntail) in
              if mech = Profile.self_frame then g.g_self <- Some ns
              else if mech = total_frame then g.g_total <- Some ns
              else g.g_mech <- (mech, spans, ns) :: g.g_mech;
              Ok ()
          | _ -> Error (Printf.sprintf "tails line %d: bad field" lineno))
      | _ -> Error (Printf.sprintf "tails line %d: expected 8 fields" lineno)
  in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_line lineno line with
        | Ok () -> go (lineno + 1) rest
        | Error _ as e -> e)
  in
  match go 1 (lines_of s) with
  | Error _ as e -> e
  | Ok () ->
      (* [!groups] is in reverse encounter order; consing while walking
         it restores file order.  Per-request detail is not serialised,
         so parsed tails come back with [tail = []]. *)
      let rec build acc = function
        | [] -> Ok acc
        | ((label, pct, cut_ns, n_requests, n_tail), g) :: rest -> (
            match (g.g_self, g.g_total) with
            | Some tail_self_ns, Some tail_total_ns ->
                build
                  ({ Profile.label; pct; cut_ns; n_requests; n_tail;
                     tail = []; tail_mech = List.rev g.g_mech; tail_self_ns;
                     tail_total_ns }
                  :: acc)
                  rest
            | None, _ ->
                Error
                  (Printf.sprintf "tails: %S is missing its %s row" label
                     Profile.self_frame)
            | Some _, None ->
                Error
                  (Printf.sprintf "tails: %S is missing its %s row" label
                     total_frame))
      in
      build [] !groups

let tails_of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | data -> tails_of_string data
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated file")

(* ---------------- Terminal summary ---------------- *)

let render_summary ?(top = 5) evs =
  (* Aggregate count and span-time by category, and within each
     category by name; association lists keep first-seen order stable
     before sorting, so output is deterministic. *)
  let cats : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
  let names : (string * string, (int * float) ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let bump tbl k ns =
    match Hashtbl.find_opt tbl k with
    | Some r ->
        let c, t = !r in
        r := (c + 1, t +. ns)
    | None -> Hashtbl.add tbl k (ref (1, ns))
  in
  List.iter
    (fun ev ->
      let ns = match Trace.kind ev with Trace.Span -> Trace.dur ev | _ -> 0. in
      bump cats (Trace.cat ev) ns;
      bump names (Trace.cat ev, Trace.name ev) ns)
    evs;
  let cat_rows =
    Hashtbl.fold (fun cat r acc -> (cat, !r) :: acc) cats []
    |> List.sort (fun (ca, (_, ta)) (cb, (_, tb)) ->
           match compare tb ta with 0 -> compare ca cb | c -> c)
  in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%-18s %-26s %8s %12s %12s\n" "category" "name" "count"
    "total" "mean";
  List.iter
    (fun (cat, (ccount, ctotal)) ->
      Printf.bprintf buf "%-18s %-26s %8d %12s %12s\n" cat "*" ccount
        (fmt_ns ctotal)
        (fmt_ns (ctotal /. float_of_int (max 1 ccount)));
      let name_rows =
        Hashtbl.fold
          (fun (c, n) r acc -> if c = cat then (n, !r) :: acc else acc)
          names []
        |> List.sort (fun (na, (_, ta)) (nb, (_, tb)) ->
               match compare tb ta with 0 -> compare na nb | c -> c)
      in
      List.iteri
        (fun i (name, (ncount, ntotal)) ->
          if i < top then
            Printf.bprintf buf "%-18s %-26s %8d %12s %12s\n" "" name ncount
              (fmt_ns ntotal)
              (fmt_ns (ntotal /. float_of_int (max 1 ncount))))
        name_rows)
    cat_rows;
  if evs = [] then Buffer.add_string buf "(empty trace)\n";
  Buffer.contents buf
