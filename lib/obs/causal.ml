module CS = Xc_platforms.Cluster_sim
module P = Xc_trace.Profile
module T = Xc_sim.Table

type target = { label : string; config : CS.config }

type baseline = {
  base : CS.result;
  n_requests : int;
  p99_cut_ns : float;
  path : Critical_path.summary;
  mech_mean : (string * float) list;
  mech_tail_mean : (string * float) list;
}

type prediction = {
  pred_tput : float;
  pred_mean_ns : float;
  pred_p99_ns : float;
}

type point = {
  pt_label : string;
  pt_mech : string;
  pt_scale : float;
  pt_base : CS.result;
  pt_pred : prediction;
  pt_rerun : CS.result;
}

let with_tracing ?(capacity = 1 lsl 18) f =
  if Xc_trace.Trace.enabled () then f ()
  else begin
    Xc_trace.Trace.enable ~capacity ();
    Fun.protect ~finally:Xc_trace.Trace.disable f
  end

(* Mean attributed ns per request for each mechanism category, over a
   request list.  Deterministic: categories sorted by name. *)
let mech_means areqs =
  let n = List.length areqs in
  if n = 0 then []
  else begin
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (r : P.attributed_request) ->
        List.iter
          (fun (cat, _, ns) ->
            match Hashtbl.find_opt tbl cat with
            | Some cell -> cell := !cell +. ns
            | None -> Hashtbl.add tbl cat (ref ns))
          r.P.req_mech)
      areqs;
    Hashtbl.fold (fun cat cell l -> (cat, !cell /. float_of_int n) :: l) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  end

let tail_at ?label ~pct att =
  match P.request_totals att with
  | [] -> None
  | totals ->
      let cut =
        Xc_sim.Histogram.percentile_floor (Xc_sim.Histogram.of_samples totals) pct
      in
      Some (P.tail_of ?label ~pct ~cut_ns:cut att)

let measure_baseline config =
  let result, captured =
    Xc_trace.Trace.capture (fun () -> CS.run config)
  in
  let att = P.attribute captured.Xc_trace.Trace.events in
  let path = Critical_path.of_events captured.Xc_trace.Trace.events in
  let n_requests = List.length att.P.areqs in
  let p99_cut_ns, mech_tail_mean =
    match tail_at ~pct:99. att with
    | None -> (0., [])
    | Some t -> (t.P.cut_ns, mech_means t.P.tail)
  in
  {
    base = result;
    n_requests;
    p99_cut_ns;
    path;
    mech_mean = mech_means att.P.areqs;
    mech_tail_mean;
  }

let predict b ~mech ~scale =
  let mean_of alist = Option.value (List.assoc_opt mech alist) ~default:0. in
  let dmean = (scale -. 1.) *. mean_of b.mech_mean in
  let dtail = (scale -. 1.) *. mean_of b.mech_tail_mean in
  let base_mean = b.base.CS.mean_latency_ns in
  let pred_mean_ns = Float.max (base_mean +. dmean) 1. in
  (* Closed loop, zero think time: X = N / E[R], so the predicted
     throughput is the baseline's rescaled by the mean-latency ratio. *)
  let pred_tput =
    if base_mean > 0. then
      b.base.CS.throughput_rps *. base_mean /. pred_mean_ns
    else b.base.CS.throughput_rps
  in
  let pred_p99_ns = b.base.CS.p99_latency_ns +. dtail in
  { pred_tput; pred_mean_ns; pred_p99_ns }

let ( let* ) = Result.bind

let run_point target ~mech ~scale =
  let* rerun_config =
    Whatif.apply_cluster { Whatif.mech; scale } target.config
  in
  let b = with_tracing (fun () -> measure_baseline target.config) in
  let rerun = CS.run rerun_config in
  Ok
    ( b,
      {
        pt_label = target.label;
        pt_mech = mech;
        pt_scale = scale;
        pt_base = b.base;
        pt_pred = predict b ~mech ~scale;
        pt_rerun = rerun;
      } )

(* Pre-validate and re-price the whole grid before anything runs, so a
   bad what-if fails fast instead of after the expensive baselines. *)
let grid ~targets ~mechs ~scales =
  let cells =
    List.concat_map
      (fun target ->
        List.concat_map
          (fun mech -> List.map (fun scale -> (target, mech, scale)) scales)
          mechs)
      targets
  in
  List.fold_left
    (fun acc (target, mech, scale) ->
      let* l = acc in
      let* config =
        Result.map_error
          (fun m -> Printf.sprintf "%s: %s x%g: %s" target.label mech scale m)
          (Whatif.apply_cluster { Whatif.mech; scale } target.config)
      in
      Ok ((target, mech, scale, config) :: l))
    (Ok []) cells
  |> Result.map List.rev

let assemble ~targets baselines reruns_cells rerun_results =
  let by_label = List.combine (List.map (fun t -> t.label) targets) baselines in
  let points =
    List.map2
      (fun (target, mech, scale, _) rerun ->
        let b = List.assoc target.label by_label in
        {
          pt_label = target.label;
          pt_mech = mech;
          pt_scale = scale;
          pt_base = b.base;
          pt_pred = predict b ~mech ~scale;
          pt_rerun = rerun;
        })
      reruns_cells rerun_results
  in
  (by_label, points)

let points_seq ~targets ~mechs ~scales () =
  let* cells = grid ~targets ~mechs ~scales in
  let baselines =
    with_tracing (fun () ->
        List.map (fun t -> measure_baseline t.config) targets)
  in
  let rerun_results = List.map (fun (_, _, _, c) -> CS.run c) cells in
  Ok (assemble ~targets baselines cells rerun_results)

type cell_result = B of baseline | R of CS.result

let sweep ?jobs ~targets ~mechs ~scales () =
  let* cells = grid ~targets ~mechs ~scales in
  let shards =
    List.map
      (fun t ->
        Xc_sim.Parallel.Shard.thunk (fun () -> B (measure_baseline t.config)))
      targets
    @ List.map
        (fun (_, _, _, c) ->
          Xc_sim.Parallel.Shard.thunk (fun () -> R (CS.run c)))
        cells
  in
  let results =
    with_tracing (fun () -> Xc_sim.Parallel.run_sharded ?jobs shards)
  in
  let baselines, rerun_results =
    List.partition_map
      (function B b -> Left b | R r -> Right r)
      results
  in
  Ok (assemble ~targets baselines cells rerun_results)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let fmt_us v = if Float.is_nan v then "-" else Printf.sprintf "%.0fus" (v /. 1e3)

let err_pct pred actual =
  if actual = 0. || Float.is_nan actual || Float.is_nan pred then "-"
  else Printf.sprintf "%+.1f%%" (100. *. (pred -. actual) /. actual)

let render_points points =
  let t =
    T.create
      [
        ("experiment", T.Left);
        ("whatif", T.Left);
        ("req/s", T.Right);
        ("pred req/s", T.Right);
        ("rerun req/s", T.Right);
        ("resid", T.Right);
        ("p99", T.Right);
        ("pred p99", T.Right);
        ("rerun p99", T.Right);
        ("resid", T.Right);
      ]
  in
  List.iter
    (fun p ->
      T.add_row t
        [
          p.pt_label;
          Whatif.to_string { Whatif.mech = p.pt_mech; scale = p.pt_scale };
          T.fmt_si p.pt_base.CS.throughput_rps;
          T.fmt_si p.pt_pred.pred_tput;
          T.fmt_si p.pt_rerun.CS.throughput_rps;
          err_pct p.pt_pred.pred_tput p.pt_rerun.CS.throughput_rps;
          fmt_us p.pt_base.CS.p99_latency_ns;
          fmt_us p.pt_pred.pred_p99_ns;
          fmt_us p.pt_rerun.CS.p99_latency_ns;
          err_pct p.pt_pred.pred_p99_ns p.pt_rerun.CS.p99_latency_ns;
        ])
    points;
  T.render t

let points_csv points =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "experiment,mech,scale,base_tput_rps,base_mean_ns,base_p99_ns,\
     pred_tput_rps,pred_mean_ns,pred_p99_ns,rerun_tput_rps,rerun_mean_ns,\
     rerun_p99_ns\n";
  List.iter
    (fun p ->
      Printf.bprintf b "%s,%s,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n"
        p.pt_label p.pt_mech
        (Printf.sprintf "%g" p.pt_scale)
        p.pt_base.CS.throughput_rps p.pt_base.CS.mean_latency_ns
        p.pt_base.CS.p99_latency_ns p.pt_pred.pred_tput p.pt_pred.pred_mean_ns
        p.pt_pred.pred_p99_ns p.pt_rerun.CS.throughput_rps
        p.pt_rerun.CS.mean_latency_ns p.pt_rerun.CS.p99_latency_ns)
    points;
  Buffer.contents b

let render_baseline ~label b =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "%s: %.0f req/s, mean %s, p99 %s (%d attributed request(s), p99 cut %s)\n"
    label b.base.CS.throughput_rps
    (fmt_us b.base.CS.mean_latency_ns)
    (fmt_us b.base.CS.p99_latency_ns)
    b.n_requests (fmt_us b.p99_cut_ns);
  Buffer.add_string buf (Critical_path.render b.path);
  Buffer.contents buf
