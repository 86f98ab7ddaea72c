let min_usable_mb = 64

type t = {
  domain : Domain.t;
  mutable ballooned_mb : int;
}

let create ~domain = { domain; ballooned_mb = 0 }
let domain_reservation_mb t = Domain.memory_mb t.domain
let guest_usable_mb t = Domain.memory_mb t.domain - t.ballooned_mb
let ballooned_mb t = t.ballooned_mb

let set_target t ~usable_mb =
  if usable_mb < min_usable_mb then
    Error
      (Printf.sprintf "target %dMB below the %dMB floor" usable_mb min_usable_mb)
  else if usable_mb > domain_reservation_mb t then
    Error
      (Printf.sprintf "target %dMB above the %dMB reservation" usable_mb
         (domain_reservation_mb t))
  else begin
    let before = guest_usable_mb t in
    t.ballooned_mb <- domain_reservation_mb t - usable_mb;
    Ok (before - usable_mb)
  end

type pool = { host_mb : int; mutable balloons : t list }

let pool ~host_mb = { host_mb; balloons = [] }
let attach p b = p.balloons <- b :: p.balloons

let pool_committed_mb p =
  List.fold_left (fun acc b -> acc + domain_reservation_mb b) 0 p.balloons

let pool_free_mb p =
  let in_use = List.fold_left (fun acc b -> acc + guest_usable_mb b) 0 p.balloons in
  p.host_mb - in_use
