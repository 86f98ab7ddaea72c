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
  let total = List.fold_left (fun n t -> n + Shard.count t) 0 tasks in
  (* Spawning more domains than the host can run concurrently is a
     pessimization (every minor GC synchronises all domains), so the
     pool never exceeds the host's recommended parallelism unless a
     test explicitly asks to oversubscribe. *)
  let workers =
    let requested = min jobs total in
    max 1 (if oversubscribe then requested else min requested (recommended_jobs ()))
  in
  if workers = 1 then
    (* One worker is a nested List.map in the calling domain: shards run
       in (task, shard) order, a raise propagates at once and later
       shards never run. *)
    List.map
      (fun (Shard.Shard { shards; merge }) -> merge (Array.map (fun f -> f ()) shards))
      tasks
  else begin
    (* One result slot per shard, one runner closure per shard. *)
    let module M = struct
      type packed =
        | Task : { slots : 'b outcome option array; merge : 'b array -> a } -> packed
    end in
    let work = Array.make total (fun () -> ()) in
    let packed =
      let next = ref 0 in
      List.map
        (fun (Shard.Shard { shards; merge }) ->
          let slots = Array.make (Array.length shards) None in
          Array.iteri
            (fun i f ->
              work.(!next) <-
                (fun () ->
                  slots.(i) <-
                    Some
                      (match f () with
                      | v -> Done v
                      | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
              incr next)
            shards;
          M.Task { slots; merge })
        tasks
    in
    (* One claim counter: every worker, the calling domain included,
       takes the next unclaimed shard in global index order until none
       is left, so no worker idles while shards remain.  Shards are
       whole sub-simulations, so one atomic increment per shard is
       noise. *)
    let claim = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add claim 1 in
      if i < total then begin
        work.(i) ();
        worker ()
      end
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    (* Merge phase, calling domain, deterministic: tasks in submission
       order, shards in index order.  A task with a failed shard yields
       its lowest-indexed failure, which re-raises only after every
       shard ran and every other task merged. *)
    let outcomes =
      List.map
        (fun (M.Task { slots; merge }) ->
          match
            Array.find_map
              (function Some (Raised (e, bt)) -> Some (e, bt) | _ -> None)
              slots
          with
          | Some (e, bt) -> Raised (e, bt)
          | None ->
              Done
                (merge
                   (Array.map
                      (function Some (Done v) -> v | _ -> assert false)
                      slots)))
        packed
    in
    List.map
      (function
        | Done v -> v
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt)
      outcomes
  end
