let mps_mean_ns ~service_mean_ns ~rho =
  if rho < 0. || rho >= 1. then
    invalid_arg "Xc_lb.Oracle.mps_mean_ns: rho must be in [0, 1)";
  service_mean_ns /. (1. -. rho)

let check_shape ~backends ~clones =
  if backends <= 0 then invalid_arg "Xc_lb.Oracle: no backends";
  if clones < 1 || clones > backends then
    invalid_arg "Xc_lb.Oracle: clones must be in [1, backends]";
  if backends mod clones <> 0 then
    invalid_arg "Xc_lb.Oracle: clones must divide backends"

let effective_utilization ~backends ~clones ~arrival_rate_per_ns ~service_mean_ns
    =
  float_of_int clones *. arrival_rate_per_ns *. service_mean_ns
  /. float_of_int backends

let cloned_mean_ns ~backends ~clones ~arrival_rate_per_ns ~service_mean_ns =
  check_shape ~backends ~clones;
  let rho =
    effective_utilization ~backends ~clones ~arrival_rate_per_ns
      ~service_mean_ns
  in
  mps_mean_ns ~service_mean_ns ~rho

(* ---------------- Closed-network MVA ---------------- *)

type closed_loop = {
  mean_ns : float;
  throughput_per_ns : float;
  utilization : float;
  steps : int;
}

(* Exact steady state of one multi-server station ([servers] cores,
   mean demand [service_ns]) fed by [clients] closed-loop customers
   with think time [think_ns]: the machine-repairman birth-death
   chain.  With [j] customers at the station,

     lambda(j) = (M - j) / Z        (arrivals from thinking customers)
     mu(j)     = min(j, c) / S      (the cores' aggregate rate)

   so pi(j+1) = pi(j) * lambda(j)/mu(j+1), solved in one O(M) forward
   sweep with on-the-fly rescaling (the unnormalised terms span
   thousands of orders of magnitude; periodic rescaling keeps every
   accumulator finite, and the final division makes the scale cancel).
   This is exact for the product-form network — and, unlike the
   load-dependent MVA recursion, numerically stable: MVA reconstructs
   p(0|m) as 1 - sum, a cancellation whose error the k < c ratio
   amplifies ~(X*S)^c/c! per customer until the distribution is
   garbage by M ~ 450 at cluster-sized loads.  Beyond [solve_cap]
   customers the sweep is cut and the saturation asymptote
   R = max(R(cap), M*S/c - Z) takes over — by then the station is
   pinned at X = c/S and Little's law fixes R.  The arithmetic is
   sequential and seedless: byte-identical at any --jobs by
   construction. *)
let solve_cap = 4_000_000

let closed_loop_mva ~servers ~clients ~service_ns ~think_ns =
  if servers <= 0 then invalid_arg "Xc_lb.Oracle.closed_loop_mva: servers";
  if clients <= 0 then invalid_arg "Xc_lb.Oracle.closed_loop_mva: clients";
  if service_ns <= 0. || not (Float.is_finite service_ns) then
    invalid_arg "Xc_lb.Oracle.closed_loop_mva: service_ns";
  if think_ns < 0. || not (Float.is_finite think_ns) then
    invalid_arg "Xc_lb.Oracle.closed_loop_mva: think_ns";
  let c = float_of_int servers in
  let m_solve = Stdlib.min clients solve_cap in
  let mf_solve = float_of_int m_solve in
  (* Z = 0 degenerates to every customer always at the station. *)
  let r, x =
    if think_ns = 0. then
      if m_solve <= servers then (service_ns, mf_solve /. service_ns)
      else (mf_solve *. service_ns /. c, c /. service_ns)
    else begin
      (* One pass: t = pi(j)/pi(0) up to a running scale; accumulate
         sum(t), sum(j*t) and sum(min(j,c)*t), rescaling all four
         together whenever t outgrows the mantissa's comfort zone. *)
      let t = ref 1. in
      let norm = ref 1. in
      let nbar = ref 0. in
      let busy = ref 0. in
      for j = 0 to m_solve - 1 do
        let jf = float_of_int j in
        let ratio =
          (mf_solve -. jf) /. think_ns
          *. (service_ns /. Float.min (jf +. 1.) c)
        in
        t := !t *. ratio;
        let j1 = jf +. 1. in
        norm := !norm +. !t;
        nbar := !nbar +. (j1 *. !t);
        busy := !busy +. (Float.min j1 c *. !t);
        if !t > 1e250 then begin
          let s = 1e-250 in
          t := !t *. s;
          norm := !norm *. s;
          nbar := !nbar *. s;
          busy := !busy *. s
        end
      done;
      let x = !busy /. !norm /. service_ns in
      let n_station = !nbar /. !norm in
      (n_station /. x, x)
    end
  in
  let steps = m_solve in
  let r, x =
    if clients <= solve_cap then (r, x)
    else
      let mf = float_of_int clients in
      let r_sat = Float.max r ((mf *. service_ns /. c) -. think_ns) in
      (r_sat, mf /. (think_ns +. r_sat))
  in
  {
    mean_ns = think_ns +. r;
    throughput_per_ns = x;
    utilization = Float.min 1. (x *. service_ns /. c);
    steps;
  }

let arrival_rate_for ~backends ~clones ~service_mean_ns ~utilization =
  check_shape ~backends ~clones;
  if utilization <= 0. || utilization >= 1. then
    invalid_arg "Xc_lb.Oracle.arrival_rate_for: utilization must be in (0, 1)";
  utilization *. float_of_int backends
  /. (float_of_int clones *. service_mean_ns)
