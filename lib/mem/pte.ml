type t = { pfn : int; writable : bool; user : bool; global : bool }

let make ?(writable = true) ?(user = true) ?(global = false) ~pfn () =
  { pfn; writable; user; global }
