type t = { latency_ns : float; gbps : float }

let create ?(latency_ns = 10_000.) ~gbps () =
  if gbps <= 0. then invalid_arg "Link.create: gbps";
  { latency_ns; gbps }

let ten_gbe = { latency_ns = 10_000.; gbps = 10. }

let serialize_ns t ~bytes_len = float_of_int bytes_len *. 8. /. t.gbps

let transfer_ns t ~bytes_len = t.latency_ns +. serialize_ns t ~bytes_len

let capacity_bytes_per_s t = t.gbps *. 1e9 /. 8.
