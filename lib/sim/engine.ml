let domain_events_key = Domain.DLS.new_key (fun () -> ref 0)
let domain_events () = !(Domain.DLS.get domain_events_key)

let add_domain_events n =
  let r = Domain.DLS.get domain_events_key in
  r := !r + n
