(* Tests for the domain-pool experiment runner (Xc_sim.Parallel): the
   fan-out must be invisible — same results, same order, same values as
   the sequential run — since the bench harness relies on that to keep
   parallel output byte-identical. *)

open Xc_sim
module CS = Xc_platforms.Cluster_sim
module Config = Xc_platforms.Config

(* Whole thunks, one shard each, results in submission order. *)
let run ~jobs thunks =
  Parallel.run_sharded ~jobs (List.map Parallel.Shard.thunk thunks)

let test_order_preserved () =
  let squares = run ~jobs:4 (List.init 20 (fun i () -> i * i)) in
  Alcotest.(check (list int))
    "submission order" (List.init 20 (fun i -> i * i)) squares

let test_more_jobs_than_work () =
  Alcotest.(check (list int)) "jobs > work" [ 7 ] (run ~jobs:8 [ (fun () -> 7) ]);
  Alcotest.(check (list int)) "no work" [] (run ~jobs:4 [])

let test_sequential_default () =
  (* jobs=1 must run in the calling domain, in order: side effects on
     shared state are then well-defined, exactly like List.map. *)
  let log = ref [] in
  let r =
    run ~jobs:1
      (List.init 5 (fun i () ->
           log := i :: !log;
           i))
  in
  Alcotest.(check (list int)) "results" [ 0; 1; 2; 3; 4 ] r;
  Alcotest.(check (list int)) "in-order effects" [ 0; 1; 2; 3; 4 ] (List.rev !log)

exception Boom of int

let test_exception_propagates () =
  match
    run ~jobs:3 (List.init 6 (fun i () -> if i = 3 then raise (Boom i)))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 3 -> ()

(* ---------------- jobs parsing ---------------- *)

let test_jobs_of_string () =
  (* Surrounding whitespace is trimmed (XC_JOBS=" 4" is fine) ... *)
  List.iter
    (fun s ->
      match Parallel.jobs_of_string s with
      | Ok 4 -> ()
      | Ok n -> Alcotest.failf "%S: expected 4, got %d" s n
      | Error e -> Alcotest.fail e)
    [ "4"; " 4"; "4 " ];
  (* ... zero means "auto-detect" ... *)
  (match Parallel.jobs_of_string "0" with
  | Ok n ->
      Alcotest.(check int) "0 is auto" (Parallel.recommended_jobs ()) n
  | Error e -> Alcotest.fail e);
  (* ... but negatives and non-numbers are hard errors. *)
  List.iter
    (fun s ->
      match Parallel.jobs_of_string s with
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error names the rule" s)
            true
            (String.length msg > 0)
      | Ok n -> Alcotest.failf "%S accepted as %d jobs" s n)
    [ "-3"; ""; "banana"; "2.5"; "1e2" ]

let test_jobs_from_env () =
  (* The mutating cases (XC_JOBS=bogus etc.) are exercised end-to-end by
     the bench CLI checks in bench/dune; here only the unset default. *)
  match Sys.getenv_opt "XC_JOBS" with
  | Some _ -> ()
  | None -> (
      match Parallel.jobs_from_env () with
      | Ok 1 -> ()
      | Ok n -> Alcotest.failf "unset XC_JOBS should default to 1, got %d" n
      | Error e -> Alcotest.fail e)

(* ---------------- determinism under fan-out ---------------- *)

(* One Cluster_sim config and one Figures.fig3 point, run through
   run ~jobs:4 and sequentially: results must be identical —
   each job owns its engine and PRNG, so domains cannot perturb it. *)

let tiny_cluster mode =
  {
    (CS.default_config mode ~containers:8) with
    duration_ns = 4e7;
    warmup_ns = 5e6;
    (* The default 25ms client RTT would outlast this tiny window. *)
    client_rtt_ns = 1e6;
  }

let test_cluster_sim_deterministic () =
  let configs = [ tiny_cluster CS.Flat; tiny_cluster CS.Hierarchical ] in
  let sequential = List.map CS.run configs in
  let parallel = run ~jobs:4 (List.map (fun c () -> CS.run c) configs) in
  Alcotest.(check bool) "identical results" true (sequential = parallel);
  Alcotest.(check bool)
    "throughput positive" true
    (List.for_all (fun (r : CS.result) -> r.throughput_rps > 0.) parallel)

let test_fig3_deterministic () =
  let point () = Xcontainers.Figures.fig3 Config.Amazon_ec2 Xcontainers.Figures.Redis_app in
  let sequential = point () in
  match run ~jobs:4 [ point; point ] with
  | [ a; b ] ->
      Alcotest.(check bool) "parallel replicas agree" true (a = b);
      Alcotest.(check bool) "parallel equals sequential" true (a = sequential)
  | _ -> Alcotest.fail "wrong arity"

let suites =
  [
    ( "sim.parallel",
      [
        Alcotest.test_case "order preserved" `Quick test_order_preserved;
        Alcotest.test_case "more jobs than work" `Quick test_more_jobs_than_work;
        Alcotest.test_case "sequential default" `Quick test_sequential_default;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "jobs_of_string" `Quick test_jobs_of_string;
        Alcotest.test_case "jobs_from_env default" `Quick test_jobs_from_env;
        Alcotest.test_case "cluster_sim deterministic" `Quick
          test_cluster_sim_deterministic;
        Alcotest.test_case "fig3 deterministic" `Quick test_fig3_deterministic;
      ] );
  ]
