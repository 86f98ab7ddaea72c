let recommended_jobs () = Domain.recommended_domain_count ()

let jobs_of_string s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some 0 -> Ok (recommended_jobs ())
  | Some n when n >= 1 -> Ok n
  | Some n ->
      Error
        (Printf.sprintf "jobs must be a positive integer (or 0 for auto), got %d" n)
  | None ->
      Error
        (Printf.sprintf "jobs must be a positive integer (or 0 for auto), got %S" s)

let jobs_from_env () =
  match Sys.getenv_opt "XC_JOBS" with
  | None -> Ok 1
  | Some s -> (
      match jobs_of_string s with
      | Ok _ as ok -> ok
      | Error msg -> Error ("XC_JOBS: " ^ msg))

(* ---------------- Shards ---------------- *)

module Shard = struct
  (* The inner shard type is existential: a task may compute its
     sub-results in any type as long as it says how an index-ordered
     array of them merges into the task's result. *)
  type 'a t =
    | Shard : { shards : (unit -> 'b) array; merge : 'b array -> 'a } -> 'a t

  let thunk f = Shard { shards = [| f |]; merge = (fun a -> a.(0)) }
  let make ~shards ~merge = Shard { shards; merge }
  let count (Shard { shards; _ }) = Array.length shards
end

type 'a outcome = Done of 'a | Raised of exn * Printexc.raw_backtrace

let run_sharded (type a) ~jobs ?(oversubscribe = false)
    (tasks : a Shard.t list) : a list =
  let instrumented = Xc_trace.Trace.enabled () || Metrics.on () in
  let total = List.fold_left (fun n t -> n + Shard.count t) 0 tasks in
  (* Spawning more domains than the host can run concurrently is a
     pessimization (every minor GC synchronises all domains), so the
     pool never exceeds the host's recommended parallelism unless a
     test explicitly asks to oversubscribe. *)
  let workers =
    let requested = min jobs total in
    max 1 (if oversubscribe then requested else min requested (recommended_jobs ()))
  in
  if workers = 1 && not instrumented then
    (* The sequential untraced path is the benched hot path: run the
       shards directly, exactly like nested List.map / Array.map —
       exceptions propagate immediately, later shards never run. *)
    List.map
      (fun (Shard.Shard { shards; merge }) -> merge (Array.map (fun f -> f ()) shards))
      tasks
  else begin
    (* One result slot per shard, one runner closure per shard.  Each
       runner drains the domain recorders at its shard boundary, so
       capture state accumulates per worker batch step, not per event
       and not per save/restore pair. *)
    let module M = struct
      type packed =
        | Task : {
            slots :
              ('b * Xc_trace.Trace.captured * Metrics.telemetry) outcome option
              array;
            merge : 'b array -> a;
          }
            -> packed
    end in
    let run_shard f store =
      match f () with
      | v ->
          let tr =
            if instrumented then Xc_trace.Trace.drain ()
            else Xc_trace.Trace.empty_captured
          in
          let tel =
            if instrumented then Metrics.drain () else Metrics.empty_telemetry
          in
          store (Done (v, tr, tel))
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          (* The raising shard's partial events die with it, exactly as
             a per-thunk capture would have discarded them. *)
          if instrumented then begin
            ignore (Xc_trace.Trace.drain ());
            ignore (Metrics.drain ())
          end;
          store (Raised (e, bt))
    in
    let work = Array.make total (fun () -> ()) in
    let packed =
      let next = ref 0 in
      List.map
        (fun (Shard.Shard { shards; merge }) ->
          let n = Array.length shards in
          let slots = Array.make n None in
          Array.iteri
            (fun i f ->
              work.(!next) <- (fun () -> run_shard f (fun r -> slots.(i) <- Some r));
              incr next)
            shards;
          M.Task { slots; merge })
        tasks
    in
    (* One claim counter: every worker takes the next unclaimed shard in
       global index order until none is left, so no worker idles while
       shards remain.  Shards are whole sub-simulations, so one atomic
       increment per shard is noise. *)
    let claim = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add claim 1 in
      if i < total then begin
        work.(i) ();
        worker ()
      end
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    (if instrumented then begin
       (* The calling domain works the pool too; its recorder may hold
          live pre-pool state (e.g. an enclosing capture), so its
          participation runs shielded — every shard drains, so the
          shield comes back empty. *)
       let ((), c), t = Metrics.capture (fun () -> Xc_trace.Trace.capture worker) in
       ignore (c : Xc_trace.Trace.captured);
       ignore (t : Metrics.telemetry)
     end
     else worker ());
    Array.iter Domain.join spawned;
    (* Merge phase, calling domain, deterministic: walk tasks in
       submission order and shards in index order — inject every
       completed shard's capture, then either merge the task or record
       its lowest-indexed failure.  The first failed task's exception
       re-raises only after all captures landed, so a failing sweep
       still yields the partial trace that explains it. *)
    let outcomes =
      List.map
        (fun (M.Task { slots; merge }) ->
          let n = Array.length slots in
          let values = Array.make n None in
          let failure = ref None in
          for i = 0 to n - 1 do
            match slots.(i) with
            | Some (Done (v, tr, tel)) ->
                Xc_trace.Trace.inject tr;
                Metrics.inject tel;
                values.(i) <- Some v
            | Some (Raised (e, bt)) ->
                if !failure = None then failure := Some (e, bt)
            | None -> assert false
          done;
          match !failure with
          | Some (e, bt) -> Raised (e, bt)
          | None ->
              Done
                (merge
                   (Array.map
                      (function Some v -> v | None -> assert false)
                      values)))
        packed
    in
    List.map
      (function
        | Done v -> v
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt)
      outcomes
  end
