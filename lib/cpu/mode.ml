type t = Hypervisor | Guest_kernel | Guest_user

let to_string = function
  | Hypervisor -> "hypervisor"
  | Guest_kernel -> "guest-kernel"
  | Guest_user -> "guest-user"

(* Mode transitions are the single most frequent traced event (two per
   trapped syscall), so their names are precomputed: recording one
   must not allocate. *)
let index = function Hypervisor -> 0 | Guest_kernel -> 1 | Guest_user -> 2

let switch_names =
  let modes = [| Hypervisor; Guest_kernel; Guest_user |] in
  Array.init 3 (fun i ->
      Array.init 3 (fun j ->
          to_string modes.(i) ^ "->" ^ to_string modes.(j)))

let switch_name ~from_ ~to_ = switch_names.(index from_).(index to_)

let record_switch ?at ~from_ ~to_ () =
  Xc_sim.Metrics.counter_incr ~cat:"cpu" ~name:"mode-switches";
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.instant ?at ~cat:"mode-switch"
      ~name:(switch_name ~from_ ~to_) ()
