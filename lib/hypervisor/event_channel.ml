type delivery = Via_hypervisor | Direct_user_mode

type t = {
  delivery : delivery;
  bound : (int, unit) Hashtbl.t;
  mutable pending : int list; (* descending insertion; read sorted *)
  mutable delivered : int;
}

let create delivery =
  { delivery; bound = Hashtbl.create 8; pending = []; delivered = 0 }

let bind t ~port = Hashtbl.replace t.bound port ()
let is_bound t ~port = Hashtbl.mem t.bound port

let notify t ~port =
  if not (is_bound t ~port) then invalid_arg "Event_channel.notify: unbound port";
  if not (List.mem port t.pending) then t.pending <- port :: t.pending;
  if Xc_sim.Metrics.on () then
    Xc_sim.Metrics.gauge_set ~cat:"hypervisor" ~name:"evtchn-backlog"
      (float_of_int (List.length t.pending));
  (* Sender marks the shared pending bitmap; cost is a cache-line write
     plus, for hypervisor delivery, the notifying hypercall. *)
  let ns =
    match t.delivery with
    | Via_hypervisor -> Xc_cpu.Costs.hypercall_ns
    | Direct_user_mode -> Xc_cpu.Costs.cache_line_refill_ns
  in
  if Xc_trace.Trace.enabled () then
    Xc_trace.Trace.span ~cat:"evtchn"
      ~name:
        (match t.delivery with
        | Via_hypervisor -> "notify-hypercall"
        | Direct_user_mode -> "notify-direct")
      ns;
  ns

let pending t = List.sort compare t.pending

let deliver_pending t handler =
  let ports = pending t in
  t.pending <- [];
  if ports <> [] then begin
    Xc_sim.Metrics.counter_add ~cat:"hypervisor" ~name:"evtchn-delivered"
      (float_of_int (List.length ports));
    Xc_sim.Metrics.gauge_set ~cat:"hypervisor" ~name:"evtchn-backlog" 0.
  end;
  let per_event =
    match t.delivery with
    | Via_hypervisor -> Xc_cpu.Costs.xen_event_channel_ns +. Xc_cpu.Costs.iret_hypercall_ns
    | Direct_user_mode -> Xc_cpu.Costs.xc_event_direct_ns +. Xc_cpu.Costs.xc_iret_ns
  in
  List.iter
    (fun port ->
      t.delivered <- t.delivered + 1;
      handler port)
    ports;
  let ns = per_event *. float_of_int (List.length ports) in
  if Xc_trace.Trace.enabled () && ports <> [] then
    Xc_trace.Trace.span ~cat:"evtchn"
      ~name:
        (match t.delivery with
        | Via_hypervisor -> "deliver-via-hypervisor"
        | Direct_user_mode -> "deliver-direct")
      ns;
  ns

let delivered_count t = t.delivered
