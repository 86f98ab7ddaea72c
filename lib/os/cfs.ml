type t = { mutable procs : Process.t list }

let create () = { procs = [] }

let add t p = if not (List.memq p t.procs) then t.procs <- t.procs @ [ p ]

let runnable_count t =
  List.length (List.filter (fun p -> Process.state p = Process.Runnable) t.procs)
