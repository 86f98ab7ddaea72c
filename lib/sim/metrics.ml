(* Mirrors the Trace recorder design: process-wide atomic switches, all
   mutable state domain-local (DLS), capture and a pure merge for
   deterministic cross-domain joins (Xc_suite.Run's cells).  Every
   emitter is one atomic load + branch when disabled. *)

type dist_view = { n : int; p50 : float; p99 : float; max_ : float }
type sample = Count of float | Level of float | Dist of dist_view
type snapshot = { at : Time_ns.t; values : (string * sample) list }

type telemetry = {
  snapshots : snapshot list;
  snap_dropped : int;
  counters : (string * float) list;
  gauges : (string * float) list;
  hists : (string * Histogram.t) list;
}

let empty_telemetry =
  { snapshots = []; snap_dropped = 0; counters = []; gauges = []; hists = [] }

let default_interval_ns = 50_000. (* 50 sim-µs *)
let default_retention = 8192

let on_flag = Atomic.make false
let interval_cell = Atomic.make default_interval_ns
let retention_cell = Atomic.make default_retention

let on () = Atomic.get on_flag
let interval_ns () = Atomic.get interval_cell
let retention () = Atomic.get retention_cell

let enable ?interval_ns ?retention () =
  (match interval_ns with
  | Some dt when dt < 1. ->
      invalid_arg "Metrics.enable: interval_ns must be >= 1"
  | Some dt -> Atomic.set interval_cell dt
  | None -> ());
  (match retention with
  | Some n when n < 1 -> invalid_arg "Metrics.enable: retention must be >= 1"
  | Some n -> Atomic.set retention_cell n
  | None -> ());
  Atomic.set on_flag true

let disable () = Atomic.set on_flag false

(* Counter and gauge cells are all-float records, stored flat: an
   update writes the float in place instead of boxing a new one the way
   a [float ref] would. *)
type cell = { mutable v : float }
type mdata = Counter_v of cell | Gauge_v of cell | Dist_v of Histogram.t

(* [key] is ["cat/name"], built once when the metric is registered. *)
type metric = { key : string; data : mdata }

(* The table is a plain polymorphic [Hashtbl]: a [Hashtbl.Make]
   instance would allocate at module initialisation, which moves the GC
   schedule (and the heap peak) of every run, telemetry off or on. *)
type reg = {
  mutable tbl : (string, (string, metric) Hashtbl.t) Hashtbl.t;
      (* cat -> name -> metric *)
  mutable sorted : metric array; (* every metric, sorted by key *)
  mutable snaps : snapshot Queue.t; (* oldest at the front *)
  mutable snap_dropped : int;
  mutable base : Time_ns.t; (* where the current run's snapshot clock starts *)
}

let reg_key =
  Domain.DLS.new_key (fun () ->
      { tbl = Hashtbl.create 16; sorted = [||]; snaps = Queue.create (); snap_dropped = 0;
        base = 0. })

let split_key k =
  match String.index_opt k '/' with
  | Some i -> (String.sub k 0 i, String.sub k (i + 1) (String.length k - i - 1))
  | None -> ("", k)

let kind_mismatch ~cat ~name =
  invalid_arg
    (Printf.sprintf "Metrics: %s/%s already registered with another kind" cat name)

(* The lookup builds no key and allocates nothing once the metric
   exists.  A metric is registered on its first emit, which also
   re-sorts [sorted]: sorted by key, so Hashtbl order never leaks into
   an artifact (jobs-determinism is byte-level). *)
let find reg ~cat ~name create =
  let names =
    match Hashtbl.find reg.tbl cat with
    | names -> names
    | exception Not_found ->
        let names = Hashtbl.create 8 in
        Hashtbl.add reg.tbl cat names;
        names
  in
  match Hashtbl.find names name with
  | m -> m.data
  | exception Not_found ->
      let m = { key = cat ^ "/" ^ name; data = create () } in
      Hashtbl.add names name m;
      let sorted = Array.append reg.sorted [| m |] in
      Array.stable_sort (fun a b -> String.compare a.key b.key) sorted;
      reg.sorted <- sorted;
      m.data

let new_counter () = Counter_v { v = 0. }
let new_gauge () = Gauge_v { v = 0. }
let new_hist () = Dist_v (Histogram.create ())

let counter_add ~cat ~name v =
  if on () then
    match find (Domain.DLS.get reg_key) ~cat ~name new_counter with
    | Counter_v c -> c.v <- c.v +. v
    | _ -> kind_mismatch ~cat ~name

let counter_incr ~cat ~name = counter_add ~cat ~name 1.

let gauge_set ~cat ~name v =
  if on () then
    match find (Domain.DLS.get reg_key) ~cat ~name new_gauge with
    | Gauge_v c -> c.v <- v
    | _ -> kind_mismatch ~cat ~name

let gauge_add ~cat ~name v =
  if on () then
    match find (Domain.DLS.get reg_key) ~cat ~name new_gauge with
    | Gauge_v c -> c.v <- c.v +. v
    | _ -> kind_mismatch ~cat ~name

let hist_observe ~cat ~name v =
  if on () then
    match find (Domain.DLS.get reg_key) ~cat ~name new_hist with
    | Dist_v h -> Histogram.add h v
    | _ -> kind_mismatch ~cat ~name

(* ---------------- Snapshots ---------------- *)

let dist_percentiles = [| 50.; 99.; 100. |]

let view = function
  | Counter_v c -> Count c.v
  | Gauge_v c -> Level c.v
  | Dist_v h ->
      let p = Histogram.percentiles h dist_percentiles in
      Dist { n = Histogram.count h; p50 = p.(0); p99 = p.(1); max_ = p.(2) }

let values_of_reg reg =
  Array.fold_right (fun m acc -> (m.key, view m.data) :: acc) reg.sorted []

let push_snapshot reg snap =
  let cap = retention () in
  Queue.push snap reg.snaps;
  while Queue.length reg.snaps > cap do
    ignore (Queue.pop reg.snaps);
    reg.snap_dropped <- reg.snap_dropped + 1
  done

let take_snapshot ~at =
  if on () then begin
    let reg = Domain.DLS.get reg_key in
    push_snapshot reg { at = reg.base +. at; values = values_of_reg reg }
  end

(* The next run's clock starts where the capture's last snapshot is,
   as [merge_telemetry] starts a later capture's. *)
let start_run () =
  if on () then begin
    let reg = Domain.DLS.get reg_key in
    reg.base <- Queue.fold (fun _ s -> s.at) reg.base reg.snaps
  end

let sample_boundaries ~from:t0 ~until:t1 =
  if on () && t1 > t0 then begin
    let dt = interval_ns () in
    let reg = Domain.DLS.get reg_key in
    let k1 = Float.floor (t1 /. dt) in
    let k0 = Float.floor (t0 /. dt) +. 1. in
    if k1 >= k0 then begin
      (* All boundaries inside one clock jump see identical registry
         values (no event ran between them), so they share one value
         list, and when the jump spans more boundaries than the
         retention window keeps, only the survivors are materialised
         and the rest counted as dropped — the end state is exactly
         what the naive loop would leave. *)
      let n = int_of_float (k1 -. k0) + 1 in
      let cap = retention () in
      let k0 =
        if n > cap then begin
          reg.snap_dropped <- reg.snap_dropped + (n - cap);
          k1 -. float_of_int (cap - 1)
        end
        else k0
      in
      let values = values_of_reg reg in
      let k = ref k0 in
      while !k <= k1 do
        push_snapshot reg { at = reg.base +. (!k *. dt); values };
        k := !k +. 1.
      done
    end
  end

(* ---------------- Capture / merge ---------------- *)

let telemetry_of_reg reg =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  for i = Array.length reg.sorted - 1 downto 0 do
    let { key; data } = reg.sorted.(i) in
    match data with
    | Counter_v c -> counters := (key, c.v) :: !counters
    | Gauge_v c -> gauges := (key, c.v) :: !gauges
    (* Copy: the telemetry value must not alias live registry state. *)
    | Dist_v h -> hists := (key, Histogram.merge h (Histogram.create ())) :: !hists
  done;
  {
    snapshots = List.of_seq (Queue.to_seq reg.snaps);
    snap_dropped = reg.snap_dropped;
    counters = !counters;
    gauges = !gauges;
    hists = !hists;
  }

let capture f =
  if not (on ()) then (f (), empty_telemetry)
  else begin
    let reg = Domain.DLS.get reg_key in
    let saved_tbl = reg.tbl
    and saved_sorted = reg.sorted
    and saved_snaps = reg.snaps
    and saved_dropped = reg.snap_dropped
    and saved_base = reg.base in
    reg.tbl <- Hashtbl.create 16;
    reg.sorted <- [||];
    reg.snaps <- Queue.create ();
    reg.snap_dropped <- 0;
    reg.base <- 0.;
    let restore () =
      reg.tbl <- saved_tbl;
      reg.sorted <- saved_sorted;
      reg.snaps <- saved_snaps;
      reg.snap_dropped <- saved_dropped;
      reg.base <- saved_base
    in
    match f () with
    | v ->
        let tel = telemetry_of_reg reg in
        restore ();
        (v, tel)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        restore ();
        Printexc.raise_with_backtrace e bt
  end

(* Pure two-sided merge (counters add, gauges last-writer-wins with [b]
   the later writer, histograms merge bucket-wise, snapshots append on
   one time axis) with no registry and no retention eviction: both
   sides already enforced the bound when they recorded.  [b]'s clock
   started at 0, so its snapshots move past [a]'s last one, as
   [Trace.concat] moves a segment past the one before.  Associative, so
   cell telemetry folds in cell order to the same value whatever the
   worker schedule was. *)
let merge_telemetry a b =
  let merge_assoc combine xs ys =
    let rec go acc xs ys =
      match (xs, ys) with
      | [], rest | rest, [] -> List.rev_append acc rest
      | (kx, vx) :: xs', (ky, vy) :: ys' ->
          let c = String.compare kx ky in
          if c < 0 then go ((kx, vx) :: acc) xs' ys
          else if c > 0 then go ((ky, vy) :: acc) xs ys'
          else go ((kx, combine vx vy) :: acc) xs' ys'
    in
    go [] xs ys
  in
  {
    snapshots =
      (match List.rev a.snapshots with
      | [] -> b.snapshots
      | last :: _ ->
          a.snapshots @ List.map (fun s -> { s with at = s.at +. last.at }) b.snapshots);
    snap_dropped = a.snap_dropped + b.snap_dropped;
    counters = merge_assoc (fun x y -> x +. y) a.counters b.counters;
    gauges = merge_assoc (fun _ y -> y) a.gauges b.gauges;
    hists = merge_assoc Histogram.merge a.hists b.hists;
  }

(* ---------------- Export ---------------- *)

let to_trace_events tel =
  let ev ~cat ~name ~ts value =
    Xc_trace.Trace.make ~kind:Xc_trace.Trace.Counter ~cat ~name ~ts ~dur:0. ~value
  in
  List.concat_map
    (fun snap ->
      List.concat_map
        (fun (k, s) ->
          let cat, name = split_key k in
          match s with
          | Count v | Level v -> [ ev ~cat ~name ~ts:snap.at v ]
          | Dist d ->
              [
                ev ~cat ~name:(name ^ ".n") ~ts:snap.at (float_of_int d.n);
                ev ~cat ~name:(name ^ ".p50") ~ts:snap.at d.p50;
                ev ~cat ~name:(name ^ ".p99") ~ts:snap.at d.p99;
                ev ~cat ~name:(name ^ ".max") ~ts:snap.at d.max_;
              ])
        snap.values)
    tel.snapshots

(* ---------------- Alert rules ---------------- *)

type alert_rule = {
  acat : string;
  aname : string;
  above : float option;
  below : float option;
}

let rule_key r = r.acat ^ "/" ^ r.aname

let rule_to_string r =
  let fmt v = Printf.sprintf "%g" v in
  rule_key r
  ^ (match r.above with Some v -> ">" ^ fmt v | None -> "")
  ^ (match r.below with Some v -> "<" ^ fmt v | None -> "")

let rule_of_string s =
  let s = String.trim s in
  let op =
    let gt = String.index_opt s '>' and lt = String.index_opt s '<' in
    match (gt, lt) with
    | Some g, Some l -> Some (min g l)
    | Some i, None | None, Some i -> Some i
    | None, None -> None
  in
  match op with
  | None ->
      Error
        (Printf.sprintf "expected CAT/NAME>VALUE or CAT/NAME<VALUE, got %S" s)
  | Some i -> (
      let key = String.trim (String.sub s 0 i) in
      let v = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      match String.index_opt key '/' with
      | None -> Error (Printf.sprintf "metric key must be CAT/NAME, got %S" key)
      | Some j -> (
          let cat = String.sub key 0 j
          and name = String.sub key (j + 1) (String.length key - j - 1) in
          if cat = "" || name = "" then
            Error (Printf.sprintf "metric key must be CAT/NAME, got %S" key)
          else
            match float_of_string_opt v with
            | Some t when Float.is_finite t ->
                if s.[i] = '>' then
                  Ok { acat = cat; aname = name; above = Some t; below = None }
                else
                  Ok { acat = cat; aname = name; above = None; below = Some t }
            | _ -> Error (Printf.sprintf "bad threshold %S in %S" v s)))

type firing = { rule : alert_rule; at : Time_ns.t; value : float }

(* The scalar a rule tests: counters and gauges their value, histogram
   metrics their p99 (the tail is what thresholds guard). *)
let scalar_of_sample = function Count v -> v | Level v -> v | Dist d -> d.p99

let fired r v =
  (match r.above with Some t -> v > t | None -> false)
  || match r.below with Some t -> v < t | None -> false

let firings ~rules tel =
  List.concat_map
    (fun snap ->
      List.filter_map
        (fun r ->
          match List.assoc_opt (rule_key r) snap.values with
          | None -> None
          | Some s ->
              let v = scalar_of_sample s in
              if fired r v then Some { rule = r; at = snap.at; value = v }
              else None)
        rules)
    tel.snapshots

let render_firings fs =
  let buf = Buffer.create 256 in
  (* One line per rule: first firing, worst value, count — readable
     even when a threshold stays crossed for thousands of snapshots. *)
  let seen = ref [] in
  List.iter
    (fun f ->
      let key = rule_to_string f.rule in
      match List.assoc_opt key !seen with
      | Some cell ->
          let n, worst = !cell in
          let worse =
            match f.rule.above with
            | Some _ -> Float.max worst f.value
            | None -> Float.min worst f.value
          in
          cell := (n + 1, worse)
      | None -> seen := !seen @ [ (key, ref (1, f.value)) ])
    fs;
  List.iter
    (fun (key, cell) ->
      let n, worst = !cell in
      Printf.bprintf buf "ALERT %s: %d snapshot(s), worst %g\n" key n worst)
    !seen;
  Buffer.contents buf
