(* The SplitMix64 state lives in an 8-byte [Bytes], read and written
   with the unboxed 64-bit primitives: a mutable [int64] record field
   would box a fresh value on every draw.  [mix], [next_int64] and
   [float] are inlined into each sampler (as is [Float.max]), so no
   [int64] or [float] crosses a call before a sampler returns. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next_int64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let split t = of_state (next_int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free: fold the positive bits modulo [bound]; the bias is
     below 2^-50 for any bound the simulator uses.  Mask to OCaml's
     62 positive bits (Int64.to_int keeps 63, which can go negative). *)
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992. *. bound

let exponential t ~mean =
  let u = Float.max 1e-12 (float t 1.0) in
  -.mean *. Float.log u

let normal t ~mean ~stddev =
  let u1 = Float.max 1e-12 (float t 1.0) in
  let u2 = float t 1.0 in
  let z = Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)
