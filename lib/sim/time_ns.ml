type t = float

let zero = 0.
let ns x = x
let us x = x *. 1e3
let ms x = x *. 1e6
let s x = x *. 1e9
let to_us t = t /. 1e3
let to_s t = t /. 1e9
let add = ( +. )
let sub = ( -. )
let compare = Float.compare
let ( + ) = ( +. )
let ( - ) = ( -. )
let min = Float.min
let max = Float.max

let pp fmt t =
  let abs = Float.abs t in
  if abs < 1e3 then Format.fprintf fmt "%.1fns" t
  else if abs < 1e6 then Format.fprintf fmt "%.2fus" (t /. 1e3)
  else if abs < 1e9 then Format.fprintf fmt "%.2fms" (t /. 1e6)
  else Format.fprintf fmt "%.3fs" (t /. 1e9)

let to_string t = Format.asprintf "%a" pp t
