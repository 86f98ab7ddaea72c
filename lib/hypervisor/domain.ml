type kind = Dom0 | Domu | Driver_domain
type state = Created | Running | Paused | Shutdown

type t = {
  kind : kind;
  memory_mb : int;
  mutable state : state;
}

let create ~kind ~vcpus ~memory_mb =
  if vcpus <= 0 then invalid_arg "Domain.create: need at least one vcpu";
  if memory_mb <= 0 then invalid_arg "Domain.create: need positive memory";
  { kind; memory_mb; state = Created }

let kind t = t.kind
let memory_mb t = t.memory_mb
let state t = t.state
let set_state t s = t.state <- s
