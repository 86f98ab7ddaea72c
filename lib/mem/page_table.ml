type t = {
  entries : (int, Pte.t) Hashtbl.t;
  mutable globals : int;
}

let create () = { entries = Hashtbl.create 64; globals = 0 }

let map t ~vpn pte =
  (match Hashtbl.find_opt t.entries vpn with
  | Some old -> if old.Pte.global then t.globals <- t.globals - 1
  | None -> ());
  Hashtbl.replace t.entries vpn pte;
  if pte.Pte.global then t.globals <- t.globals + 1

let lookup t ~vpn = Hashtbl.find_opt t.entries vpn
let entry_count t = Hashtbl.length t.entries
let global_count t = t.globals
let iter t f = Hashtbl.iter f t.entries

let map_range t ~vpn ~pages ~first_pfn ~flags =
  for i = 0 to pages - 1 do
    map t ~vpn:(vpn + i) (flags ~pfn:(first_pfn + i))
  done
