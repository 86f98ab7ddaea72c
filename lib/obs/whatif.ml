module CS = Xc_platforms.Cluster_sim

type t = { mech : string; scale : float }

let mechanisms =
  [ "cpu"; "syscall-entry"; "syscall-work"; "ctx-switch"; "irq"; "net.hop" ]

let max_scale = 10.

let validate ~mech ~scale =
  if not (List.mem mech mechanisms) then
    Error
      (Printf.sprintf "unknown mechanism %S (%s)" mech
         (String.concat ", " mechanisms))
  else if not (Float.is_finite scale) then
    Error (Printf.sprintf "scale must be a finite number")
  else if scale < 0. || scale > max_scale then
    Error
      (Printf.sprintf "scale must be in [0, %g], got %s" max_scale
         (Printf.sprintf "%g" scale))
  else Ok ()

let to_string w =
  Printf.sprintf "%s x%s" w.mech (Xc_sim.Table.fmt_shortest w.scale)

let ( let* ) = Result.bind

let scale_rows w rows =
  List.map
    (fun (cat, name, ns) ->
      if cat = w.mech then (cat, name, ns *. w.scale) else (cat, name, ns))
    rows

let apply_cluster w (c : CS.config) =
  let* () = validate ~mech:w.mech ~scale:w.scale in
  match w.mech with
  | "ctx-switch" ->
      let cswitch = c.CS.container_switch_ns and pswitch = c.CS.process_switch_ns in
      Ok
        {
          c with
          CS.container_switch_ns =
            (fun ~runnable -> w.scale *. cswitch ~runnable);
          process_switch_ns = w.scale *. pswitch;
        }
  | "net.hop" -> Ok { c with CS.client_rtt_ns = w.scale *. c.CS.client_rtt_ns }
  | _ ->
      if Array.length c.CS.request_mech = 0 then
        Error
          (Printf.sprintf
             "mechanism %s needs per-stage pricing, but this config has no \
              request_mech rows (price it with config_of_platform)"
             w.mech)
      else
        let request_mech = Array.map (scale_rows w) c.CS.request_mech in
        (* The same fold config_of_platform derives stage_cpu_ns with,
           so scale 1 reproduces the original bytes. *)
        let stage_cpu_ns =
          Array.map
            (List.fold_left (fun a (_, _, ns) -> a +. ns) 0.)
            request_mech
        in
        Ok { c with CS.request_mech; stage_cpu_ns }

let apply_cluster_all ws config =
  List.fold_left
    (fun acc (mech, scale) ->
      let* c = acc in
      apply_cluster { mech; scale } c)
    (Ok config) ws
