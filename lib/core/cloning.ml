type snapshot = { memory_mb : int; resident_pages : int }

let snapshot_of_parent ~memory_mb ~resident_pages =
  if memory_mb <= 0 || resident_pages < 0 then
    invalid_arg "Cloning.snapshot_of_parent";
  { memory_mb; resident_pages }

type clone_breakdown = {
  toolstack_ns : float;
  page_sharing_setup_ns : float;
  eager_copy_ns : float;
  total_ns : float;
}

let clone s =
  let toolstack_ns = 4e6 (* LightVM-style descriptor creation *) in
  (* Marking the parent's tables copy-on-write: one pass over its page
     table entries, batched through the PV MMU. *)
  let total_pages = s.memory_mb * 256 in
  let page_sharing_setup_ns =
    float_of_int total_pages *. Xc_cpu.Costs.pv_validation_per_entry_ns /. 8.
  in
  (* The resident set is copied eagerly so the clone starts hot. *)
  let eager_copy_ns = float_of_int s.resident_pages *. 800. in
  {
    toolstack_ns;
    page_sharing_setup_ns;
    eager_copy_ns;
    total_ns = toolstack_ns +. page_sharing_setup_ns +. eager_copy_ns;
  }

let speedup_vs_cold_boot s =
  (Boot.xcontainer ()).Boot.total_ns /. (clone s).total_ns

let speedup_vs_lightvm_boot s =
  (Boot.xcontainer ~toolstack:Boot.Lightvm ()).Boot.total_ns /. (clone s).total_ns
