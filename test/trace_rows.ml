(* Trace events as plain rows.  An event is a view into its capture's
   columns, so tests compare, print and marshal these projections, never
   the views themselves. *)

module Trace = Xc_trace.Trace

type t = Trace.kind * string * string * float * float * float

let row ev : t =
  (Trace.kind ev, Trace.cat ev, Trace.name ev, Trace.ts ev, Trace.dur ev, Trace.value ev)

let rows evs = List.map row evs

(* A capture's events as rows, with its accounting. *)
let captured (c : Trace.captured) = (rows c.events, c.dropped, c.streams, c.cursor)

let testable =
  let pp fmt ((kind, cat, name, ts, dur, value) : t) =
    Format.fprintf fmt "%s %s/%s ts=%g dur=%g v=%g" (Trace.kind_to_string kind) cat name
      ts dur value
  in
  Alcotest.testable pp ( = )
