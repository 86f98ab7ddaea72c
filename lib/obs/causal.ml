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

(* Tracing on for [f]: a no-op when it already is (sampling and
   capacity inherited), otherwise a default-capacity ring, switched off
   again afterwards (also on exceptions). *)
let with_tracing f =
  if Xc_trace.Trace.enabled () then f ()
  else begin
    Xc_trace.Trace.enable ~capacity:Xc_trace.Trace.default_capacity ();
    Fun.protect ~finally:Xc_trace.Trace.disable f
  end

(* Mean attributed ns per request of a tail for each mechanism
   category.  Deterministic: categories sorted by name. *)
let mech_means (t : P.tail) =
  let per = float_of_int t.P.n_tail in
  List.map (fun (cat, _, ns) -> (cat, ns /. per)) t.P.tail_mech
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The [pct] cut of a capture's attribution; a capture that dropped
   events while holding requests has lost part of its population. *)
let cut ~label ~pct ~dropped att =
  match P.request_totals att with
  | [] -> Ok None
  | _ when dropped > 0 ->
      Error
        (Printf.sprintf
           "track %s dropped %d trace event(s) from its ring; refusing a p%g \
            tail cut over a truncated request population (shorten the run or \
            trace with a sampling stride)"
           label dropped pct)
  | totals ->
      let cut =
        Xc_sim.Histogram.percentile_floor (Xc_sim.Histogram.of_samples totals) pct
      in
      Ok (Some (P.tail_of ~label ~pct ~cut_ns:cut att))

let tail_at ~label ~pct (captured : Xc_trace.Trace.captured) =
  cut ~label ~pct ~dropped:captured.dropped (P.attribute captured.events)

let ( let* ) = Result.bind

let measure_baseline target =
  let result, captured =
    Xc_trace.Trace.capture (fun () -> CS.run target.config)
  in
  let att = P.attribute captured.Xc_trace.Trace.events in
  let* tail = cut ~label:target.label ~pct:99. ~dropped:captured.dropped att in
  (* With no cut, the tail is every request. *)
  let all = P.tail_of ~pct:0. ~cut_ns:neg_infinity att in
  let p99_cut_ns, mech_tail_mean =
    match tail with
    | None -> (0., [])
    | Some t -> (t.P.cut_ns, mech_means t)
  in
  Ok
    {
      base = result;
      n_requests = all.P.n_requests;
      p99_cut_ns;
      path = Critical_path.(summarize (of_attribution att));
      mech_mean = mech_means all;
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

let sweep_points ~jobs points =
  (* Re-price every point before anything runs, so a bad what-if fails
     fast instead of after the expensive baselines. *)
  let* reruns =
    List.fold_left
      (fun acc (label, target, mech, scale) ->
        let* l = acc in
        let* config =
          Result.map_error
            (fun m -> Printf.sprintf "%s: %s x%g: %s" label mech scale m)
            (Whatif.apply_cluster { Whatif.mech; scale } target.config)
        in
        Ok (config :: l))
      (Ok []) points
    |> Result.map List.rev
  in
  (* One traced baseline per distinct target, in first-use order. *)
  let targets =
    List.fold_left
      (fun acc (_, t, _, _) ->
        if List.exists (fun u -> u.label = t.label) acc then acc else t :: acc)
      [] points
    |> List.rev
  in
  let pool f xs =
    Xc_sim.Parallel.run_sharded ~jobs
      (List.map (fun x -> Xc_sim.Parallel.Shard.thunk (fun () -> f x)) xs)
  in
  (* Each baseline captures its own trace; the reruns run outside
     [with_tracing], so they are traced only when the caller traces. *)
  let baselines = with_tracing (fun () -> pool measure_baseline targets) in
  let reruns = pool CS.run reruns in
  let* baselines =
    List.fold_right
      (fun b acc ->
        let* b = b in
        let* l = acc in
        Ok (b :: l))
      baselines (Ok [])
  in
  let by_label = List.combine (List.map (fun t -> t.label) targets) baselines in
  let points =
    List.map2
      (fun (label, target, mech, scale) rerun ->
        let b = List.assoc target.label by_label in
        {
          pt_label = label;
          pt_mech = mech;
          pt_scale = scale;
          pt_base = b.base;
          pt_pred = predict b ~mech ~scale;
          pt_rerun = rerun;
        })
      points reruns
  in
  Ok (by_label, points)

let sweep ~jobs ~targets ~mechs ~scales =
  sweep_points ~jobs
    (List.concat_map
       (fun t ->
         List.concat_map
           (fun mech -> List.map (fun scale -> (t.label, t, mech, scale)) scales)
           mechs)
       targets)

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
        (List.map
           (fun s -> T.Text s)
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
           ]))
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
