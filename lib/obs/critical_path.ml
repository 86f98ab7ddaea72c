module P = Xc_trace.Profile

type segment = { seg_label : string; seg_spans : int; seg_ns : float }

type chain = {
  chain_id : int;
  chain_name : string;
  chain_total : float;
  segments : segment list;
}

type t = { chains : chain list; unattributed_ns : float }

type summary = {
  n_chains : int;
  path_ns : float;
  shares : segment list;
  sum_unattributed_ns : float;
}

let self_label = P.self_frame
let nested_label = P.nested_frame

let segments rows =
  List.map
    (fun (seg_label, seg_spans, seg_ns) -> { seg_label; seg_spans; seg_ns })
    rows

(* A chain is the request's attribution with its own window time and
   its nested requests as two more segments. *)
let chain_of (r : P.attributed_request) =
  let t = P.tally () in
  List.iter (fun (cat, n, ns) -> P.tally_add t cat n ns) r.P.req_mech;
  P.tally_add t self_label 1 r.P.req_self;
  if r.P.req_nested > 0 then
    P.tally_add t nested_label r.P.req_nested r.P.req_nested_ns;
  {
    chain_id = r.P.req_id;
    chain_name = r.P.req_name;
    chain_total = r.P.req_total;
    segments = segments (P.tally_rows t);
  }

let of_attribution att =
  {
    chains = List.map chain_of (P.requests att);
    unattributed_ns = P.unattributed_ns att;
  }

let extract evs = of_attribution (P.attribute evs)

let summarize t =
  let shares = P.tally () in
  let path = ref 0. in
  List.iter
    (fun c ->
      path := !path +. c.chain_total;
      List.iter
        (fun s -> P.tally_add shares s.seg_label s.seg_spans s.seg_ns)
        c.segments)
    t.chains;
  {
    n_chains = List.length t.chains;
    path_ns = !path;
    shares = segments (P.tally_rows shares);
    sum_unattributed_ns = t.unattributed_ns;
  }

let share s label =
  if s.path_ns <= 0. then 0.
  else
    match List.find_opt (fun seg -> seg.seg_label = label) s.shares with
    | Some seg -> seg.seg_ns /. s.path_ns
    | None -> 0.

let fmt_ns = P.fmt_ns

let render_chain c =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "request %s#%d  total %s\n" c.chain_name c.chain_id
    (fmt_ns c.chain_total);
  List.iter
    (fun s ->
      let pct =
        if c.chain_total > 0. then 100. *. s.seg_ns /. c.chain_total else 0.
      in
      Printf.bprintf buf "  %-18s %4dx %10s %6.1f%%\n" s.seg_label s.seg_spans
        (fmt_ns s.seg_ns) pct)
    c.segments;
  Buffer.contents buf

let render ?top s =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "critical path: %d request(s), %s total\n" s.n_chains
    (fmt_ns s.path_ns);
  let shares =
    match top with
    | None -> s.shares
    | Some n -> List.filteri (fun i _ -> i < n) s.shares
  in
  List.iter
    (fun seg ->
      Printf.bprintf buf "  %-18s %6dx %10s %6.1f%%\n" seg.seg_label
        seg.seg_spans (fmt_ns seg.seg_ns)
        (100. *. share s seg.seg_label))
    shares;
  if s.sum_unattributed_ns > 0. then
    Printf.bprintf buf "  (outside any request: %s)\n"
      (fmt_ns s.sum_unattributed_ns);
  Buffer.contents buf
