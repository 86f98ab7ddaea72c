type t = float

let zero = 0.
let compare = Float.compare
let max = Float.max
