type state = Runnable | Blocked

type t = { mutable state : state; aspace : Xc_mem.Address_space.t }

let create ~aspace = { state = Runnable; aspace }
let state t = t.state
let set_state t s = t.state <- s
let aspace t = t.aspace
