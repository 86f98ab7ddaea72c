let page_size_bytes = 4096

type params = {
  memory_mb : int;
  dirty_pages_per_s : float;
  link_gbps : float;
  max_rounds : int;
  stop_threshold_pages : int;
}

let default_params ~memory_mb =
  {
    memory_mb;
    dirty_pages_per_s = 5_000.;
    link_gbps = 1.;
    max_rounds = 30;
    stop_threshold_pages = 2_000;
  }

type round = { index : int; pages_sent : int; duration_ns : float }

type result = {
  rounds : round list;
  total_pages_sent : int;
  downtime_ns : float;
  total_ns : float;
  converged : bool;
}

let transfer_ns_per_page p =
  float_of_int page_size_bytes *. 8. /. p.link_gbps (* ns at gbps = bits/ns *)

let migrate p =
  if p.memory_mb <= 0 then invalid_arg "Migration.migrate: memory";
  let per_page = transfer_ns_per_page p in
  let total_pages = p.memory_mb * 256 in
  (* Round 0 copies everything; each later round copies what was dirtied
     while the previous round ran. *)
  let rec go index to_send rounds sent =
    let duration = float_of_int to_send *. per_page in
    let round = { index; pages_sent = to_send; duration_ns = duration } in
    let sent = sent + to_send in
    let dirtied =
      int_of_float (p.dirty_pages_per_s *. duration /. 1e9)
      |> Stdlib.min total_pages
    in
    let rounds = round :: rounds in
    if dirtied <= p.stop_threshold_pages then (List.rev rounds, sent, dirtied, true)
    else if index + 1 >= p.max_rounds then (List.rev rounds, sent, dirtied, false)
    else go (index + 1) dirtied rounds sent
  in
  let rounds, sent, residual, converged = go 0 total_pages [] 0 in
  (* Stop-and-copy: the guest is paused while the residual moves, plus a
     fixed handover (device re-attach, ARP announcements). *)
  let handover_ns = 3e6 in
  let downtime = (float_of_int residual *. per_page) +. handover_ns in
  let total =
    List.fold_left (fun acc r -> acc +. r.duration_ns) downtime rounds
  in
  {
    rounds;
    total_pages_sent = sent + residual;
    downtime_ns = downtime;
    total_ns = total;
    converged;
  }
