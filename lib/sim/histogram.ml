(* 32 sub-buckets per power of two gives ~2.2% relative precision. *)
let sub_buckets = 32
let n_powers = 48 (* covers [1, 2^48) ~ 2.8e14: ns up to ~3 simulated days *)
let n_buckets = (sub_buckets * n_powers) + 1

type t = {
  buckets : int array;
  mutable count : int;
  sum : float array;
      (* one cell: a mutable float field beside non-float fields would
         box a fresh float on every [add] *)
}

let create () = { buckets = Array.make n_buckets 0; count = 0; sum = [| 0. |] }

let bucket_of_value v =
  if v < 1.0 then 0
  else begin
    let exponent = int_of_float (Float.log2 v) in
    let exponent = if exponent >= n_powers then n_powers - 1 else exponent in
    let base = Float.pow 2. (float_of_int exponent) in
    let frac = (v -. base) /. base in
    let sub = int_of_float (frac *. float_of_int sub_buckets) in
    let sub = if sub >= sub_buckets then sub_buckets - 1 else sub in
    1 + (exponent * sub_buckets) + sub
  end

let[@inline] value_of_bucket i =
  if i = 0 then 0.5
  else begin
    let i = i - 1 in
    let exponent = i / sub_buckets and sub = i mod sub_buckets in
    let base = Float.pow 2. (float_of_int exponent) in
    base *. (1.0 +. ((float_of_int sub +. 0.5) /. float_of_int sub_buckets))
  end

let add t v =
  let v = Float.max 0. v in
  let i = bucket_of_value v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum.(0) <- t.sum.(0) +. v

let count t = t.count

let of_samples xs =
  let t = create () in
  List.iter (add t) xs;
  t

let floor_of_bucket i =
  if i = 0 then 0.
  else begin
    let i = i - 1 in
    let exponent = i / sub_buckets and sub = i mod sub_buckets in
    let base = Float.pow 2. (float_of_int exponent) in
    base *. (1.0 +. (float_of_int sub /. float_of_int sub_buckets))
  end

(* The 1-based rank of percentile [p]: [max 1 (min count (round
   (p/100 * count)))]. *)
let[@inline] rank t p =
  let r = int_of_float (Float.round (p /. 100. *. float_of_int t.count)) in
  Stdlib.max 1 (Stdlib.min t.count r)

let percentile_bucket t p =
  if t.count = 0 then n_buckets - 1
  else begin
    let rank = rank t p in
    let rec scan i seen =
      if i >= n_buckets then n_buckets - 1
      else begin
        let seen = seen + t.buckets.(i) in
        if seen >= rank then i else scan (i + 1) seen
      end
    in
    scan 0 0
  end

let percentile t p =
  if t.count = 0 then 0. else value_of_bucket (percentile_bucket t p)

(* One scan for every rank: [ps] ascending makes the ranks
   non-decreasing, so each resumes the scan where the previous one
   stopped. *)
let percentiles t ps =
  let out = Array.make (Array.length ps) 0. in
  if t.count > 0 then begin
    let i = ref 0 and seen = ref t.buckets.(0) in
    for j = 0 to Array.length ps - 1 do
      if j > 0 && not (ps.(j) >= ps.(j - 1)) then
        invalid_arg "Histogram.percentiles: percentiles not ascending";
      let rank = rank t ps.(j) in
      while !seen < rank && !i < n_buckets - 1 do
        incr i;
        seen := !seen + t.buckets.(!i)
      done;
      out.(j) <- value_of_bucket !i
    done
  end;
  out

let percentile_floor t p =
  if t.count = 0 then 0. else floor_of_bucket (percentile_bucket t p)

let mean t = if t.count = 0 then 0. else t.sum.(0) /. float_of_int t.count

let merge a b =
  let t = create () in
  for i = 0 to n_buckets - 1 do
    t.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
  done;
  t.count <- a.count + b.count;
  t.sum.(0) <- a.sum.(0) +. b.sum.(0);
  t

let equal a b =
  (* sum is excluded on purpose: float addition is not associative, so
     two histograms built from the same samples grouped differently
     (e.g. merged across worker domains) can disagree in [sum] while
     agreeing in every bucket.  Percentiles read only buckets/count. *)
  a.count = b.count && Array.for_all2 ( = ) a.buckets b.buckets
