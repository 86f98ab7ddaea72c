(* The xc command-line tool: poke at the X-Containers reproduction from
   the shell.

     xc boot --image nginx:1.13 --repeat 500
     xc abom --style glibc-wide --sysno 15
     xc platforms
     xc syscall-costs [--cloud google] [--unpatched]
     xc profile mysql
     xc profiles
     xc boot-times

   (The paper's tables and figures live in `dune exec bench/main.exe`.) *)

open Cmdliner
module Config = Xc_platforms.Config
module CS = Xc_platforms.Cluster_sim
module Trace = Xc_trace.Trace
module Profile = Xc_trace.Profile
module Causal = Xc_obs.Causal
module Workload = Xc_suite.Workload
module Spec = Xc_suite.Spec
module Driver = Xc_suite.Driver
module Run = Xc_suite.Run
module Experiments = Xc_suite.Experiments

let exit_err msg =
  prerr_endline ("xc: " ^ msg);
  exit 1

(* ---------------- shared flags ---------------- *)

(* Every flag more than one command takes is declared once, here.  Each
   numeric flag checks its range as the command line is read: a bad
   value exits 1 with "xc: --FLAG expects ...", before anything runs. *)

let checked ?(aliases = []) name cv ~ok ~expects default ~docv ~doc =
  let check v =
    if ok v then v
    else
      exit_err
        (Format.asprintf "--%s expects %s, got %a" name expects
           (Arg.conv_printer cv) v)
  in
  let names = name :: aliases in
  Term.(const check $ Arg.(value & opt cv default & info names ~docv ~doc))

let positive_int ?aliases name default ~doc =
  checked ?aliases name Arg.int ~ok:(fun n -> n >= 1)
    ~expects:"a positive integer" default ~docv:"N" ~doc

(* Floats echo back as %g ("0", not "0.") in errors and help. *)
let float_arg = Arg.conv (Arg.conv_parser Arg.float, fun f -> Format.fprintf f "%g")

let positive_float ?aliases ?(unit = "") name default ~docv ~doc =
  checked ?aliases name float_arg
    ~ok:(fun x -> Float.is_finite x && x > 0.)
    ~expects:("a positive number" ^ unit) default ~docv ~doc

let cloud_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "amazon" | "ec2" -> Ok Config.Amazon_ec2
    | "google" | "gce" -> Ok Config.Google_gce
    | "local" -> Ok Config.Local_cluster
    | other -> Error (`Msg ("unknown cloud: " ^ other))
  in
  Arg.conv
    ( parse,
      fun fmt c ->
        Format.pp_print_string fmt
          (match c with
          | Config.Amazon_ec2 -> "amazon"
          | Config.Google_gce -> "google"
          | Config.Local_cluster -> "local") )

let cloud =
  Arg.(value & opt cloud_conv Config.Amazon_ec2
      & info [ "cloud"; "c" ] ~doc:"Cloud: amazon, google, local.")

let runtime_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "docker" -> Ok Config.Docker
    | "gvisor" -> Ok Config.Gvisor
    | "clear" -> Ok Config.Clear_container
    | "xen-container" -> Ok Config.Xen_container
    | "x-container" | "xc" -> Ok Config.X_container
    | other -> Error (`Msg ("unknown runtime: " ^ other))
  in
  Arg.conv (parse, fun fmt r -> Format.pp_print_string fmt (Config.runtime_name r))

let runtime_names = "docker, gvisor, clear, xen-container, x-container"

let runtime =
  Arg.(value & opt runtime_conv Config.X_container
      & info [ "runtime"; "r" ] ~doc:("Runtime: " ^ runtime_names ^ "."))

(* $XC_JOBS (validated, 0-is-auto included) or 1. *)
let env_jobs () =
  match Xc_sim.Parallel.jobs_from_env () with
  | Ok n -> n
  | Error msg -> exit_err msg

(* Explicit values must be positive (0 means "auto": whatever the host
   can usefully run); absent falls back to {!env_jobs}. *)
let jobs =
  let resolve = function
    | Some 0 -> Xc_sim.Parallel.recommended_jobs ()
    | Some n when n >= 1 -> n
    | Some n ->
        exit_err
          (Printf.sprintf
             "--jobs expects a positive integer (or 0 for auto), got %d" n)
    | None -> env_jobs ()
  in
  Term.(
    const resolve
    $ Arg.(value & opt (some int) None
          & info [ "jobs"; "j" ] ~docv:"N"
              ~doc:"Worker domains (default \\$XC_JOBS or 1; 0 = auto); \
                    output and every artifact are identical at any value."))

let containers =
  positive_int "containers" Spec.cluster.load.containers
    ~doc:"Containers per node (cluster config)."

let connections default ~doc = positive_int "connections" default ~doc

(* "--tail p99", "--tail 99.9", "--tail 99" all mean the same cut. *)
let tail ?default ~doc () =
  let pct s =
    let t = String.trim (String.lowercase_ascii s) in
    let t =
      if String.length t > 1 && t.[0] = 'p' then
        String.sub t 1 (String.length t - 1)
      else t
    in
    match float_of_string_opt t with
    | Some p when p > 0. && p <= 100. -> p
    | _ ->
        exit_err
          (Printf.sprintf "--tail expects a percentile like p99 or 99.9, got %S" s)
  in
  Term.(
    const (Option.map pct)
    $ Arg.(value & opt (some string) default & info [ "tail" ] ~docv:"PCT" ~doc))

let slowest default ~doc =
  checked "slowest" Arg.int ~ok:(fun k -> k >= 0)
    ~expects:"a non-negative integer" default ~docv:"K" ~doc

let sample default ~doc = positive_int "sample" default ~doc

let duration_ms default ~doc =
  positive_float "duration" ~unit:" of sim-milliseconds" default ~docv:"MS" ~doc

let memory_mb = positive_int "memory" ~aliases:[ "m" ] 128 ~doc:"Guest memory in MB."

let file_flag name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let folded_out =
  file_flag "folded"
    ~doc:"Write the span timeline(s) as collapsed-stack flamegraph lines \
          (flamegraph.pl / speedscope input)."

let tails_out =
  file_flag "tails"
    ~doc:"Also write the tail attribution as a tails CSV (byte-identical \
          across --jobs)."

let timeseries_out =
  file_flag "timeseries"
    ~doc:"Sample the metric registry on the sim clock and write the \
          time-series as Chrome counter events, or CSV when FILE ends in \
          .csv (byte-identical across --jobs)."

let app_conv =
  let parse s =
    match Workload.find (String.lowercase_ascii s) with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown app %S; one of: %s" s
                (String.concat ", " Workload.names)))
  in
  Arg.conv (parse, fun fmt (w : Workload.t) -> Format.pp_print_string fmt w.name)

(* One experiment through the bench's runner: its cells run on the pool
   and each captures its own trace and telemetry. *)
let run_one ?trace ?telemetry ~jobs name cells =
  match Run.run ?trace ?telemetry ~jobs [ (name, cells) ] with
  | [ o ] -> o
  | _ -> assert false

(* One cell through the runner: its result and what it recorded. *)
let run_cell ?trace ?telemetry ~jobs f =
  match Run.map ?trace ?telemetry ~jobs [ f ] with [ r ] -> r | _ -> assert false

let print_report report = print_string (Run.render report)

(* A command that prints one of Experiments' reports as it is. *)
let report_cmd name ~doc report =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun () -> print_report (report ())) $ const ())

(* The runner's artifact writer, one "wrote" line per file. *)
let write_files ?spans ?tails ?series files =
  List.iter (Printf.printf "wrote %s\n") (Run.write ?spans ?tails ?series files)

(* The [pct] tail of every track, printed after a blank line, or
   [none] when no track holds requests; a track that dropped events
   exits naming it. *)
let print_tails ~pct ~slowest ~none tracks =
  print_newline ();
  match Run.tails ~pct tracks with
  | Error e -> exit_err e
  | Ok [] ->
      print_string none;
      []
  | Ok tails ->
      List.iteri
        (fun i t ->
          if i > 0 then print_newline ();
          print_string (Profile.render_tail ~slowest t))
        tails;
      tails

(* Labelled cluster nodes traced as one runner cell each: every node's
   track and its [pct] tail, which each node must have. *)
let traced_tails ~pct ~jobs nodes =
  let spans =
    List.map2
      (fun (label, _) (_, (p : Run.piece)) -> (label, p.trace))
      nodes
      (Run.map ~trace:1 ~jobs (List.map (fun (_, node) () -> CS.run node) nodes))
  in
  match Run.tails ~pct spans with
  | Ok tails when List.length tails = List.length spans -> (spans, tails)
  | Ok _ -> exit_err "a traced cluster run emitted no request spans"
  | Error e -> exit_err e

(* The Fig 9 cluster point ([Spec.cluster]) on [config] at a per-node
   load; [Driver.cluster] prices it. *)
let cluster_spec ~containers ~connections config =
  {
    Spec.cluster with
    platform = config;
    load = { Spec.cluster.load with containers; connections };
  }

(* The engine-driven workloads `trace run` and `top` share, priced into
   a thunk that runs one: cluster (a Fig 9 node), closed-loop (nginx
   over 30 ms after 3) or an application in the closed-loop driver over
   [app_ms] (window, warm-up).  [tails] adds the recipe's mechanism
   rows to every request. *)
let priced_workload config ~tails ~app_ms exp =
  if exp = "cluster" then
    let node = List.hd (Driver.cluster { Spec.cluster with platform = config }) in
    Some (fun () -> ignore (CS.run node))
  else
    let name, (duration_ms, warmup_ms) =
      if exp = "closed-loop" then ("nginx", (30., 3.)) else (exp, app_ms)
    in
    Option.map
      (fun (w : Workload.t) ->
        let s = { Spec.default with platform = config; workload = w.name } in
        let cl_config, server =
          Driver.closed
            {
              s with
              load = { s.load with duration_ms; warmup_ms };
              capture = { s.capture with tails };
            }
        in
        fun () -> ignore (Xc_platforms.Closed_loop.run cl_config server))
      (Workload.find name)

(* ---------------- xc boot ---------------- *)

let boot_cmd =
  let image =
    Arg.(value & opt string "nginx:1.13" & info [ "image"; "i" ] ~doc:"Docker image to boot.")
  in
  let vcpus = Arg.(value & opt int 1 & info [ "vcpus" ] ~doc:"Virtual CPUs.") in
  let repeat =
    positive_int "repeat" ~aliases:[ "r" ] 100 ~doc:"Program executions."
  in
  let lightvm =
    Arg.(value & flag & info [ "lightvm" ] ~doc:"Use the LightVM-style toolstack.")
  in
  let run image memory vcpus repeat lightvm =
    let xkernel = Xc_hypervisor.Xkernel.create ~pcpus:4 ~memory_mb:16384 () in
    let spec = Xcontainers.Spec.make ~memory_mb:memory ~vcpus ~name:"cli" ~image () in
    let toolstack = if lightvm then Xcontainers.Boot.Lightvm else Xcontainers.Boot.Xl in
    match Xcontainers.Xcontainer.boot ~toolstack ~xkernel spec with
    | Error e -> exit_err e
    | Ok xc ->
        Format.printf "booted %a@." Xcontainers.Spec.pp spec;
        Format.printf "boot time: %a@." Xcontainers.Boot.pp
          (Xcontainers.Xcontainer.boot_time xc);
        (match Xcontainers.Xcontainer.exec_program ~repeat xc with
        | Ok Xc_isa.Machine.Halted ->
            let s = Xcontainers.Xcontainer.syscall_stats xc in
            Format.printf
              "ran %d times: %d syscalls, %d trapped, %d converted (%.2f%%)@."
              repeat s.total s.via_trap s.via_function_call (100. *. s.reduction)
        | Ok _ -> exit_err "program did not halt"
        | Error e ->
            Format.printf "(image has no entry program: %s)@." e);
        Xcontainers.Xcontainer.shutdown ~xkernel xc
  in
  Cmd.v
    (Cmd.info "boot" ~doc:"Boot an X-Container and run its program under ABOM.")
    Term.(const run $ image $ memory_mb $ vcpus $ repeat $ lightvm)

(* ---------------- xc abom ---------------- *)

let style_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "glibc-small" -> Ok Xc_isa.Builder.Glibc_small
    | "glibc-wide" -> Ok Xc_isa.Builder.Glibc_wide
    | "go-stack" -> Ok Xc_isa.Builder.Go_stack
    | "cancellable" -> Ok Xc_isa.Builder.Cancellable
    | "exotic" -> Ok Xc_isa.Builder.Exotic
    | other -> Error (`Msg ("unknown wrapper style: " ^ other))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Xc_isa.Builder.style_to_string s))

let abom_cmd =
  let style =
    Arg.(value & opt style_conv Xc_isa.Builder.Glibc_small
        & info [ "style"; "s" ]
            ~doc:"Wrapper style: glibc-small, glibc-wide, go-stack, cancellable, exotic.")
  in
  let sysno =
    checked "sysno" ~aliases:[ "n" ] Arg.int
      ~ok:(fun n -> n >= 0 && n <= 0x7fff_ffff)
      ~expects:"a syscall number in [0, 2147483647]" 0 ~docv:"VAL"
      ~doc:"Syscall number."
  in
  let offline =
    Arg.(value & flag & info [ "offline" ] ~doc:"Also run the aggressive offline tool.")
  in
  let run style sysno offline =
    let prog = Xc_isa.Builder.build [ (style, sysno) ] in
    let site = List.hd prog.sites in
    let dump title =
      Format.printf "--- %s ---@." title;
      print_endline
        (Xc_isa.Image.disassemble_range prog.image ~off:site.wrapper_off ~len:12);
      print_newline ()
    in
    dump "before";
    let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
    let outcome = Xc_abom.Patcher.patch_site patcher prog.image ~syscall_off:site.syscall_off in
    Format.printf "online patch: %s@.@." (Xc_abom.Patcher.outcome_to_string outcome);
    dump "after online ABOM";
    if offline then begin
      let report = Xc_abom.Offline_tool.patch_image ~aggressive:true patcher prog.image in
      Format.printf "offline tool: %a@.@." Xc_abom.Offline_tool.pp_report report;
      dump "after offline tool"
    end
  in
  Cmd.v
    (Cmd.info "abom" ~doc:"Show ABOM rewriting one syscall site, byte for byte.")
    Term.(const run $ style $ sysno $ offline)

(* ---------------- xc platforms ---------------- *)

let platforms_cmd =
  report_cmd "platforms" ~doc:"The capability matrix of Section 2.3." Experiments.platforms

(* ---------------- xc syscall-costs ---------------- *)

let syscall_costs_cmd =
  let unpatched =
    Arg.(value & flag & info [ "unpatched" ] ~doc:"Without the Meltdown patches.")
  in
  let run cloud unpatched =
    print_report (Experiments.syscall_costs ~cloud ~meltdown_patched:(not unpatched))
  in
  Cmd.v
    (Cmd.info "syscall-costs" ~doc:"The calibrated per-platform cost table.")
    Term.(const run $ cloud $ unpatched)

(* ---------------- xc profile / profiles ---------------- *)

let profile_cmd =
  let app_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"APP") in
  let invocations = positive_int "invocations" 50_000 ~doc:"Workload size." in
  let run name invocations =
    match Xc_apps.Profiles.find name with
    | None -> exit_err ("unknown application: " ^ name)
    | Some profile ->
        let m = Xc_apps.Profiles.measure ~invocations profile in
        Format.printf "%s (%s), driven by %s@." profile.name profile.implementation
          profile.benchmark;
        Format.printf "  syscall sites: %d (%d patched online)@."
          (List.length profile.sites) m.sites_patched;
        Format.printf "  online ABOM reduction:  %.2f%% (paper: %.1f%%)@."
          (100. *. m.auto_reduction)
          (100. *. profile.paper_reduction);
        Format.printf "  with offline tool:      %.2f%%%s@."
          (100. *. m.manual_reduction)
          (match profile.paper_manual_reduction with
          | Some v -> Printf.sprintf " (paper: %.1f%%)" (100. *. v)
          | None -> "");
        Format.printf "  atomic cmpxchg stores:  %d@." m.cmpxchg_ops
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Measure ABOM coverage for one Table 1 application.")
    Term.(const run $ app_arg $ invocations)

let profiles_cmd =
  let run () =
    List.iter
      (fun (p : Xc_apps.Profiles.profile) ->
        Printf.printf "%-20s %-14s %s\n" p.name p.implementation p.benchmark)
      Xc_apps.Profiles.all
  in
  Cmd.v (Cmd.info "profiles" ~doc:"List the Table 1 applications.") Term.(const run $ const ())

(* ---------------- xc boot-times ---------------- *)

let boot_times_cmd =
  report_cmd "boot-times" ~doc:"Instantiation-time comparison (Section 4.5)."
    Experiments.boot

(* ---------------- xc migrate ---------------- *)

let migrate_cmd =
  let dirty =
    checked "dirty-rate" float_arg
      ~ok:(fun x -> Float.is_finite x && x >= 0.)
      ~expects:"a non-negative number of pages/s" 5000. ~docv:"R"
      ~doc:"Dirtied pages/s."
  in
  let gbps = positive_float "link" 1.0 ~docv:"GBPS" ~doc:"Migration link Gb/s." in
  let run memory dirty gbps =
    let params =
      {
        (Xc_hypervisor.Migration.default_params ~memory_mb:memory) with
        dirty_pages_per_s = dirty;
        link_gbps = gbps;
      }
    in
    let r = Xc_hypervisor.Migration.migrate params in
    List.iter
      (fun (round : Xc_hypervisor.Migration.round) ->
        Printf.printf "round %2d: %7d pages, %8.1fms\n" round.index
          round.pages_sent
          (round.duration_ns /. 1e6))
      r.rounds;
    Printf.printf "total: %d pages in %.0fms, downtime %.1fms, %s\n"
      r.total_pages_sent (r.total_ns /. 1e6) (r.downtime_ns /. 1e6)
      (if r.converged then "converged" else "forced stop-and-copy")
  in
  Cmd.v
    (Cmd.info "migrate" ~doc:"Pre-copy live migration of an X-Container.")
    Term.(const run $ memory_mb $ dirty $ gbps)

(* ---------------- xc clone ---------------- *)

let clone_cmd =
  let resident =
    Arg.(value & opt int 2048 & info [ "resident" ] ~doc:"Hot pages copied eagerly.")
  in
  let run memory resident =
    (* 4 KiB pages: the working set cannot outgrow the guest. *)
    if resident < 0 || resident > memory * 256 then
      exit_err
        (Printf.sprintf
           "--resident expects 0 to %d pages (the %d MB guest), got %d"
           (memory * 256) memory resident);
    print_report (Experiments.clone ~memory_mb:memory ~resident_pages:resident)
  in
  Cmd.v
    (Cmd.info "clone" ~doc:"SnowFlock-style clone of a warm X-Container.")
    Term.(const run $ memory_mb $ resident)

(* ---------------- xc security ---------------- *)

let security_cmd =
  report_cmd "security" ~doc:"TCB / attack-surface comparison (Section 3.4)."
    Experiments.security

(* ---------------- xc coldstart ---------------- *)

let coldstart_cmd =
  let rate =
    positive_float "rate" 0.05 ~docv:"RPS" ~doc:"Invocations per second."
  in
  let run rate = print_report (Experiments.coldstart ~rates:[ rate ]) in
  Cmd.v
    (Cmd.info "coldstart" ~doc:"Serverless cold-start tails by spawn path.")
    Term.(const run $ rate)

(* ---------------- xc build-binary / patch-binary ---------------- *)

let styles_arg =
  Arg.(value
      & opt (list style_conv) [ Xc_isa.Builder.Glibc_small; Xc_isa.Builder.Glibc_wide ]
      & info [ "styles" ] ~doc:"Comma-separated wrapper styles.")

let build_binary_cmd =
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run out styles =
    let wrappers = List.mapi (fun i style -> (style, i)) styles in
    let prog = Xc_isa.Builder.build wrappers in
    Xc_isa.Xelf.save prog.image ~path:out;
    Printf.printf "wrote %s: %d bytes, %d syscall sites\n" out
      (Xc_isa.Image.size prog.image)
      (List.length prog.sites)
  in
  Cmd.v
    (Cmd.info "build-binary" ~doc:"Assemble a synthetic binary into a XELF file.")
    Term.(const run $ out $ styles_arg)

let patch_binary_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let aggressive =
    Arg.(value & flag & info [ "aggressive" ] ~doc:"Also rewrite cancellable sites.")
  in
  let run file aggressive =
    match Xc_isa.Xelf.load ~path:file with
    | Error e -> exit_err e
    | Ok img ->
        let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
        let report = Xc_abom.Offline_tool.patch_image ~aggressive patcher img in
        Xc_isa.Xelf.save img ~path:file;
        Format.printf "%a; rewrote %s in place@." Xc_abom.Offline_tool.pp_report
          report file
  in
  Cmd.v
    (Cmd.info "patch-binary"
       ~doc:"Run the offline ABOM tool over a XELF binary at rest.")
    Term.(const run $ file $ aggressive)

let disasm_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run file =
    match Xc_isa.Xelf.load ~path:file with
    | Error e -> exit_err e
    | Ok img ->
        List.iter
          (fun (s : Xc_isa.Image.symbol) ->
            Printf.printf "<%s>:\n%s\n\n" s.name
              (Xc_isa.Image.disassemble_range img ~off:s.offset
                 ~len:(Stdlib.min s.size (Xc_isa.Image.size img - s.offset))))
          (Xc_isa.Image.symbols img)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a XELF binary by symbol.")
    Term.(const run $ file)

(* ---------------- xc profile-binary ---------------- *)

let profile_binary_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let iterations = positive_int "iterations" ~aliases:[ "n" ] 200 ~doc:"Workload runs." in
  let run file iterations =
    match Xc_isa.Xelf.load ~path:file with
    | Error e -> exit_err e
    | Ok img ->
        let entry =
          match Xc_isa.Image.find_symbol img "main" with
          | Some s -> s.Xc_isa.Image.offset
          | None -> 0
        in
        let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
        let config = Xc_abom.Patcher.machine_config patcher () in
        let m = Xc_isa.Machine.create ~config img ~entry in
        for _ = 1 to iterations do
          Xc_isa.Machine.reset m ~entry;
          match Xc_isa.Machine.run ~fuel:1_000_000 m with
          | Xc_isa.Machine.Halted -> ()
          | Fault msg -> exit_err msg
          | Fuel_exhausted -> exit_err "fuel exhausted"
        done;
        Format.printf "%a@." Xc_abom.Profile.pp (Xc_abom.Profile.of_machine m)
  in
  Cmd.v
    (Cmd.info "profile-binary"
       ~doc:"Run a XELF binary under the X-Kernel and print its syscall profile.")
    Term.(const run $ file $ iterations)

(* ---------------- xc sweep ---------------- *)

let sweep_cmd =
  let counts =
    checked "containers" Arg.(list int)
      ~ok:(List.for_all (fun n -> n >= 1))
      ~expects:"positive integers" [ 16; 64; 150 ] ~docv:"N,..."
      ~doc:"Comma-separated container counts."
  in
  let duration_ms =
    duration_ms 300. ~doc:"Simulated duration per point, in ms."
  in
  let trace_out =
    Arg.(value & opt ~vopt:(Some "sweep.trace.json") (some string) None
        & info [ "trace" ] ~docv:"FILE"
            ~doc:"Also record a trace of the sweep.  Long cluster-sim \
                  sweeps emit far more events than any reasonable ring, \
                  so sampling is on by default (stride \\$(b,--sample), \
                  exact kept/seen accounting printed); disable it with \
                  \\$(b,--no-sample).")
  in
  let sample =
    sample 16
      ~doc:"Sampling stride for --trace: keep one event per window of N per \
            (cat,name) stream."
  in
  let no_sample =
    Arg.(value & flag
        & info [ "no-sample" ]
            ~doc:"With --trace: record every event instead of sampling \
                  (the ring may drop the oldest under load).")
  in
  let run counts jobs duration_ms trace_out sample no_sample =
    let stride = if no_sample then 1 else sample in
    let t0 = Unix.gettimeofday () in
    let o =
      run_one ?trace:(Option.map (fun _ -> stride) trace_out) ~jobs "sweep"
        (Experiments.sweep ~counts ~duration_ms)
    in
    let wall = Unix.gettimeofday () -. t0 in
    print_string o.Run.output;
    (* Wall time varies run to run, so it stays off stdout. *)
    Printf.eprintf "%d points in %.2fs wall with %d domain(s)\n%!"
      (2 * List.length counts) wall jobs;
    write_files ~spans:[ ("sweep", o.Run.trace) ] { Run.no_files with trace_out }
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Figure 8 scheduler sweep, fanned out over worker domains.")
    Term.(const run $ counts $ jobs $ duration_ms $ trace_out $ sample
          $ no_sample)

(* ---------------- xc experiments ---------------- *)

let experiments_cmd =
  let run () =
    print_endline "paper experiments:";
    List.iter
      (fun e -> Format.printf "  %a@." Xcontainers.Inventory.pp_entry e)
      Xcontainers.Inventory.paper_entries;
    print_endline "extensions:";
    List.iter
      (fun e -> Format.printf "  %a@." Xcontainers.Inventory.pp_entry e)
      Xcontainers.Inventory.extension_entries;
    print_endline "";
    print_endline "run any of them with:  dune exec bench/main.exe <id>"
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"List every reproducible experiment.")
    Term.(const run $ const ())

(* ---------------- xc run-app ---------------- *)

let run_app_cmd =
  let app_arg =
    Arg.(value & opt app_conv (Workload.find_exn "nginx")
        & info [ "app"; "a" ] ~doc:"Application.")
  in
  let connections = connections 64 ~doc:"Concurrent clients." in
  let run (app : Workload.t) runtime connections =
    let config = Config.make runtime in
    let spec = { Spec.default with platform = config; workload = app.name } in
    let result =
      Driver.closed_result { spec with load = { spec.load with connections } }
    in
    Printf.printf
      "%s on %s: %.0f req/s (p50 %.0fus, p99 %.0fus, %d served in 2s simulated)\n"
      app.name
      (Config.name config)
      result.throughput_rps
      (result.p50_ns /. 1e3)
      (result.p99_ns /. 1e3)
      result.completed
  in
  Cmd.v
    (Cmd.info "run-app"
       ~doc:"Closed-loop benchmark of any modelled application on any runtime.")
    Term.(const run $ app_arg $ runtime $ connections)

(* ---------------- xc trace ---------------- *)

let unixbench_workloads =
  [
    ("syscalls", Xc_apps.Unixbench.Syscall_rate);
    ("fig4", Xc_apps.Unixbench.Syscall_rate);
    ("execl", Xc_apps.Unixbench.Execl);
    ("file-copy", Xc_apps.Unixbench.File_copy);
    ("pipe", Xc_apps.Unixbench.Pipe_throughput);
    ("context-switch", Xc_apps.Unixbench.Context_switching);
    ("process-creation", Xc_apps.Unixbench.Process_creation);
  ]

(* The httpd workload: serve [requests] GETs against pages of very
   different sizes through the semantic substrate, with wire hops and
   interrupt delivery modelled per runtime, so each request span has
   syscall-work / net.hop / evtchn children and "slowest" means
   something. *)
let run_traced_httpd config platform ~requests =
  let fail_vfs = function
    | Ok v -> v
    | Error e -> exit_err ("httpd: " ^ Xc_os.Vfs.error_to_string e)
  in
  let kernel = Xc_os.Kernel.create ~config:Xc_os.Kernel.xlibos_config () in
  let vfs = Xc_os.Kernel.vfs kernel in
  fail_vfs (Xc_os.Vfs.mkdir_p vfs "/var/www");
  let sizes = [| 512; 256; 16384; 1024; 65536; 2048; 128; 8192 |] in
  Array.iteri
    (fun i size ->
      fail_vfs
        (Xc_os.Vfs.write_file vfs
           (Printf.sprintf "/var/www/page%d.html" i)
           (Bytes.make size 'x')))
    sizes;
  let server =
    match Xc_apps.Httpd.create ~kernel ~port:80 ~docroot:"/var/www" with
    | Ok s -> s
    | Error e -> exit_err ("httpd: " ^ e)
  in
  let delivery =
    match config.Config.runtime with
    | Config.X_container | Config.Xen_container ->
        Xc_hypervisor.Event_channel.Direct_user_mode
    | _ -> Xc_hypervisor.Event_channel.Via_hypervisor
  in
  let events = Xc_hypervisor.Event_channel.create delivery in
  Xc_hypervisor.Event_channel.bind events ~port:80;
  let n_pages = Array.length sizes in
  for i = 1 to requests do
    let page = i mod n_pages in
    (* Every 11th request misses, so 404s show up in the profile. *)
    let path =
      if i mod 11 = 0 then "/missing.html"
      else Printf.sprintf "/page%d.html" page
    in
    let response_bytes = if i mod 11 = 0 then 128 else sizes.(page) + 64 in
    let deliver () =
      ignore
        (Xc_platforms.Platform.request_net_ns platform ~request_bytes:64
           ~response_bytes);
      ignore (Xc_hypervisor.Event_channel.notify events ~port:80);
      ignore (Xc_hypervisor.Event_channel.deliver_pending events (fun _ -> ()))
    in
    ignore (Xc_apps.Httpd.get ~id:i ~deliver server ~path)
  done

let trace_run_cmd =
  let exp_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"EXPERIMENT"
            ~doc:"A UnixBench loop (syscalls, execl, file-copy, pipe, \
                  context-switch, process-creation), an application \
                  (nginx, memcached, redis, ...) in the wrk-style \
                  closed-loop driver with per-request mechanism spans \
                  (closed-loop is nginx under its own label), httpd \
                  (the executable server, with per-request tracing), or \
                  cluster (the Fig 9 scheduling simulation, ditto).")
  in
  let iterations =
    positive_int "iterations" ~aliases:[ "n" ] 100
      ~doc:"Loop iterations (UnixBench workloads)."
  in
  let out =
    Arg.(value & opt (some string) None
        & info [ "out"; "o" ] ~docv:"FILE"
            ~doc:"Write the trace: Chrome trace-event JSON, or CSV when FILE \
                  ends in .csv.")
  in
  let top =
    checked "top" Arg.int ~ok:(fun n -> n >= 0)
      ~expects:"a non-negative integer" 5 ~docv:"N"
      ~doc:"Names per category in the summary."
  in
  let sample =
    sample 1
      ~doc:"Sampling stride: keep one event per window of N per (cat,name) \
            stream and print the exact kept/skipped accounting. The summary \
            is rescaled by it."
  in
  let slowest =
    slowest 0
      ~doc:"Explain the K slowest requests end-to-end by mechanism \
            (workloads that emit request spans: httpd, closed-loop, cluster \
            and the closed-loop applications).  With --tail, details the K \
            slowest tail requests instead."
  in
  let tail =
    tail
      ~doc:"Attribute the requests at or above this latency percentile \
            (e.g. p99, 99.9) to mechanisms, with exact self-time \
            partitioning.  Needs a request-emitting workload."
      ()
  in
  let run exp runtime cloud iterations out top sample folded slowest tail_pct
      tails_out jobs timeseries =
    let exp = String.lowercase_ascii exp in
    let config = Config.make ~cloud runtime in
    let platform = Xc_platforms.Platform.create config in
    if tails_out <> None && tail_pct = None then
      exit_err "--tails needs --tail";
    let workload =
      if exp = "httpd" then fun () -> run_traced_httpd config platform ~requests:iterations
      else
        match List.assoc_opt exp unixbench_workloads with
        | Some test ->
            fun () ->
              for _ = 1 to iterations do
                ignore (Xc_apps.Unixbench.per_iteration_ns platform test)
              done
        | None -> (
            (* A short window keeps every request's bundle in the ring. *)
            match priced_workload config ~tails:true ~app_ms:(30., 3.) exp with
            | Some w -> w
            | None ->
                exit_err
                  (Printf.sprintf
                     "unknown experiment %S; one of: httpd closed-loop cluster %s"
                     exp
                     (String.concat ", "
                        (List.map fst unixbench_workloads @ Workload.names))))
    in
    let (), ({ trace = captured; telemetry; _ } : Run.piece) =
      run_cell ~trace:sample
        ?telemetry:(Option.map (fun _ -> Xc_sim.Metrics.default_interval_ns) timeseries)
        ~jobs workload
    in
    let { Trace.events; dropped; streams; _ } = captured in
    let label = exp ^ "/" ^ Config.name config in
    (* With a sampling stride, rescale spans by the exact per-stream
       kept/seen counters so the summary estimates the full run. *)
    let scaled = Profile.rescale ~streams events in
    print_string (Xc_trace.Export.render_summary ~top scaled);
    if sample > 1 then begin
      Printf.printf "\nsampling stride %d (summary rescaled by kept/seen):\n"
        sample;
      print_string (Profile.render_streams streams)
    end;
    let tails =
      match tail_pct with
      | None ->
          if slowest > 0 then begin
            print_newline ();
            print_string (Profile.render_slowest ~k:slowest events)
          end;
          []
      | Some pct ->
          print_tails ~pct ~slowest [ (label, captured) ]
            ~none:
              "(no request spans in trace; --tail needs a request-emitting \
               workload)\n"
    in
    if dropped > 0 then
      Printf.printf "(ring full: %d oldest events dropped)\n" dropped;
    (* Request spans go to their own lane in the trace, tying each
       request to its children. *)
    write_files ~spans:[ (label, captured) ] ~tails
      ~series:[ (label ^ "/telemetry", telemetry) ]
      {
        Run.no_files with
        trace_out = out;
        request_lanes = true;
        folded_out = folded;
        tails_out;
        timeseries_out = timeseries;
      }
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Trace one workload and print its per-category cost summary.")
    Term.(const run $ exp_arg $ runtime $ cloud $ iterations $ out $ top
          $ sample $ folded_out $ slowest $ tail $ tails_out $ jobs
          $ timeseries_out)

let trace_diff_cmd =
  let a_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"A") in
  let b_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"B") in
  let run a b =
    match (Xc_trace.Export.of_file a, Xc_trace.Export.of_file b) with
    | Ok ea, Ok eb ->
        print_string
          (Xc_trace.Diff.render ~a_label:(Filename.basename a)
             ~b_label:(Filename.basename b) ~a:ea ~b:eb ())
    | Error e, _ | _, Error e -> exit_err e
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Explain the cost delta between two trace files, by category.")
    Term.(const run $ a_arg $ b_arg)

(* ---------------- xc trace tails ---------------- *)

let trace_tails_cmd =
  let a_arg =
    Arg.(required & pos 0 (some runtime_conv) None
        & info [] ~docv:"A" ~doc:("First runtime (" ^ runtime_names ^ ")."))
  in
  let b_arg =
    Arg.(value & pos 1 (some runtime_conv) None
        & info [] ~docv:"B"
            ~doc:"Second runtime; when given, the two tails are diffed and \
                  the mechanism explaining the p99 gap is ranked.")
  in
  let diff_flag =
    Arg.(value & flag
        & info [ "diff" ]
            ~doc:"Diff the two tails (implied whenever B is given; kept as \
                  an explicit spelling).")
  in
  let connections =
    connections Spec.cluster.load.connections
      ~doc:"Closed-loop connections per container.  At the default 5 a \
            hierarchical runtime's vCPU saturates and queueing (request \
            self-time) dominates its tail; at 1 the load is light and the \
            diff isolates the per-mechanism cost gap."
  in
  let tail = tail ~default:"p99" ~doc:"Tail percentile cut (e.g. p99, 99.9)." () in
  let slowest =
    slowest 0 ~doc:"Without B: also detail the K slowest tail requests."
  in
  let csv =
    file_flag "csv" ~doc:"Write the tail(s) as a tails CSV (one block per side)."
  in
  let run a b _diff cloud containers connections pct slowest csv folded jobs =
    let pct = Option.get pct in
    (* One traced fig-9-style cluster node per side, priced here. *)
    let sides =
      List.map
        (fun runtime ->
          let config = Config.make ~cloud runtime in
          ( "cluster/" ^ Config.name config,
            List.hd (Driver.cluster (cluster_spec ~containers ~connections config)) ))
        (a :: Option.to_list b)
    in
    let spans, tails = traced_tails ~pct ~jobs sides in
    (match tails with
    | [ ta; tb ] -> print_string (Xc_trace.Diff.render_tails ~a:ta ~b:tb)
    | _ -> List.iter (fun t -> print_string (Profile.render_tail ~slowest t)) tails);
    write_files ~spans ~tails { Run.no_files with tails_out = csv; folded_out = folded }
  in
  Cmd.v
    (Cmd.info "tails"
       ~doc:"Attribute the p99 tail of the Fig 9 cluster workload to \
             mechanisms, and diff the tail composition of two runtimes.")
    Term.(const run $ a_arg $ b_arg $ diff_flag $ cloud $ containers
          $ connections $ tail $ slowest $ csv $ folded_out $ jobs)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Record execution traces and diff them: who wins and why.")
    [ trace_run_cmd; trace_diff_cmd; trace_tails_cmd ]

(* ---------------- xc top ---------------- *)

(* ASCII sparkline over a series, scaled to the series maximum. *)
let spark_levels = " .:-=+*#%@"

let sparkline values =
  let mx = List.fold_left Float.max 0. values in
  String.concat ""
    (List.map
       (fun v ->
         let i =
           if mx <= 0. || v <= 0. then 0
           else min 9 (int_of_float (Float.round (v /. mx *. 9.)))
         in
         String.make 1 spark_levels.[i])
       values)

let last_n k l =
  let n = List.length l in
  if n <= k then l else List.filteri (fun i _ -> i >= n - k) l

let top_cmd =
  let exp_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"WORKLOAD"
            ~doc:"cluster (the Fig 9 scheduling simulation), closed-loop \
                  (the wrk-style driver), or an application (nginx, \
                  memcached, redis, ...) — the workloads that drive the \
                  sim engine, whose clock paces the snapshots.")
  in
  let interval =
    positive_float "interval" ~aliases:[ "i" ] ~unit:" of sim-microseconds" 50.
      ~docv:"N" ~doc:"Snapshot cadence in simulated microseconds."
  in
  let rows =
    positive_int "snapshots" 10
      ~doc:"Snapshot lines to print, evenly spaced across the run and \
            ending at the last one."
  in
  let rate =
    Arg.(value & opt ~vopt:(Some 1) (some int) None
        & info [ "rate" ] ~docv:"W"
            ~doc:"Derivative view: show each counter as a per-second rate \
                  over its last W snapshot intervals (bare --rate means \
                  W=1) instead of the cumulative total.  Gauges and \
                  distributions are unchanged.")
  in
  let alert =
    Arg.(value & opt_all string []
        & info [ "alert" ] ~docv:"RULE"
            ~doc:"Alert rule CAT/NAME>V or CAT/NAME<V, checked against \
                  every snapshot (repeatable).  Firing metrics are marked \
                  '!' next to their sparkline and listed after the table.")
  in
  let run exp runtime cloud interval_us rows timeseries rate jobs alert =
    let module M = Xc_sim.Metrics in
    let alert_rules =
      List.map
        (fun s ->
          match M.rule_of_string s with
          | Ok r -> r
          | Error e -> exit_err ("--alert: " ^ e))
        alert
    in
    (match rate with
    | Some w when w < 1 ->
        exit_err
          (Printf.sprintf "--rate expects a positive number of intervals, got %d" w)
    | _ -> ());
    let exp = String.lowercase_ascii exp in
    let config = Config.make ~cloud runtime in
    let workload =
      match priced_workload config ~tails:false ~app_ms:(200., 20.) exp with
      | Some w -> w
      | None ->
          exit_err
            (Printf.sprintf "unknown workload %S; one of: cluster closed-loop %s" exp
               (String.concat ", " Workload.names))
    in
    let (), ({ telemetry; _ } : Run.piece) =
      run_cell ~telemetry:(interval_us *. 1e3) ~jobs workload
    in
    let firings =
      if alert_rules = [] then [] else M.firings ~rules:alert_rules telemetry
    in
    let fired_key key =
      List.exists
        (fun (f : M.firing) -> f.M.rule.M.acat ^ "/" ^ f.M.rule.M.aname = key)
        firings
    in
    let snaps = telemetry.M.snapshots in
    let n = List.length snaps in
    Printf.printf "xc top: %s on %s — %d snapshot(s), one per %gus of sim time%s\n"
      exp (Config.name config) n interval_us
      (if telemetry.M.snap_dropped > 0 then
         Printf.sprintf " (%d older dropped beyond retention)"
           telemetry.M.snap_dropped
       else "");
    if snaps = [] then
      print_string
        "(no snapshots: the workload never advanced the sim clock across an \
         interval boundary)\n"
    else begin
      print_newline ();
      (* A time-lapse: [rows] snapshots evenly spaced over the whole run,
         always including the last. *)
      let spaced =
        if n <= rows then snaps
        else List.init rows (fun k -> List.nth snaps (((k + 1) * n / rows) - 1))
      in
      List.iter
        (fun (s : M.snapshot) ->
          let gauges =
            List.filter_map
              (fun (k, v) ->
                match v with
                | M.Level x -> Some (Printf.sprintf "%s=%g" k x)
                | _ -> None)
              s.M.values
          in
          Printf.printf "snapshot @%11.3fms  %s\n" (s.M.at /. 1e6)
            (String.concat "  " gauges))
        spaced;
      let win = last_n 33 snaps in
      let latest = List.nth snaps (n - 1) in
      (* Derivative view: a counter's per-second rate over its last
         [w] snapshot intervals, measured against the sim clock (the
         actual [at] gap, not the nominal cadence — the last interval
         can be short when the run ends mid-interval). *)
      let counter_rate key =
        match rate with
        | None -> None
        | Some w ->
            let base = List.nth snaps (Stdlib.max 0 (n - 1 - w)) in
            let value_at (s : M.snapshot) =
              match List.assoc_opt key s.M.values with
              | Some (M.Count x) -> x
              | _ -> 0.
            in
            let dt_s = (latest.M.at -. base.M.at) /. 1e9 in
            if dt_s <= 0. then Some 0.
            else Some ((value_at latest -. value_at base) /. dt_s)
      in
      Printf.printf "\n  %-30s %-8s %14s  per-interval (last %d)%s\n" "metric"
        "kind" "last" (List.length win)
        (match rate with
        | Some w ->
            Printf.sprintf "  [counters: rate over last %d interval(s)]" w
        | None -> "");
      List.iter
        (fun (key, sample) ->
          let extract v =
            match v with
            | M.Count x -> x
            | M.Level x -> x
            | M.Dist d -> d.M.p99
          in
          let raw =
            List.map
              (fun (s : M.snapshot) ->
                match List.assoc_opt key s.M.values with
                | Some v -> extract v
                | None -> 0.)
              win
          in
          (* Counters are cumulative: sparkline their per-interval delta. *)
          let series =
            match sample with
            | M.Count _ -> (
                match raw with
                | [] -> []
                | first :: _ ->
                    let prev = ref first in
                    List.map
                      (fun v ->
                        let d = v -. !prev in
                        prev := v;
                        Float.max 0. d)
                      raw)
            | _ -> raw
          in
          let kind, lastv =
            match (sample, counter_rate key) with
            | M.Count _, Some r -> ("rate/s", r)
            | M.Count x, _ -> ("counter", x)
            | (M.Level x, _) -> ("gauge", x)
            | (M.Dist d, _) -> ("p99-ns", d.M.p99)
          in
          Printf.printf "  %-30s %-8s %14.1f  |%s|%s\n" key kind lastv
            (sparkline series)
            (if fired_key key then " !" else ""))
        latest.M.values
    end;
    if alert_rules <> [] then begin
      print_newline ();
      if firings = [] then print_string "(no alerts fired)\n"
      else print_string (M.render_firings firings)
    end;
    write_files ~series:[ (exp ^ "/telemetry", telemetry) ]
      { Run.no_files with timeseries_out = timeseries }
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Run a workload with sim-clock metric snapshots on and show \
             the registry like top(1): last snapshots, then every metric \
             with a per-interval sparkline.")
    Term.(const run $ exp_arg $ runtime $ cloud $ interval $ rows
          $ timeseries_out $ rate $ jobs $ alert)

(* ---------------- xc cluster ---------------- *)

let cluster_cmd =
  let fidelity_arg =
    Arg.(value & opt string "exact"
        & info [ "fidelity"; "f" ] ~docv:"TIER"
            ~doc:"Fidelity tier: exact (every request through the \
                  event-driven dispatcher), fluid (the closed loop solved \
                  analytically via MVA — means only), or mixed (fluid bulk \
                  plus a seeded exact slice for the tail).")
  in
  let sample_rate =
    checked "sample-rate" Arg.(some int)
      ~ok:(function Some n -> n >= 1 | None -> true)
      ~expects:"a positive integer" None ~docv:"N"
      ~doc:"Mixed tier only: 1 in N containers runs through the exact \
            slice (default 100)."
  in
  let nodes =
    positive_int "nodes" 1
      ~doc:"Independent nodes to simulate; node i derives its seed from \
            the base seed + i."
  in
  let connections =
    connections Spec.cluster.load.connections
      ~doc:"Closed-loop client connections per container."
  in
  let tail =
    tail
      ~doc:"Attribute the PCT tail (e.g. p99) of the exact/mixed request \
            population across mechanisms, one tail per node."
      ()
  in
  let run fidelity sample_rate nodes containers connections runtime cloud
      tail_pct tails_out timeseries jobs =
    let fidelity =
      match (String.lowercase_ascii fidelity, sample_rate) with
      | "exact", None -> CS.Exact
      | "fluid", None -> CS.Fluid
      | "mixed", rate -> CS.Mixed { sample_rate = Option.value ~default:100 rate }
      | ("exact" | "fluid"), Some _ ->
          exit_err "--sample-rate only applies to --fidelity mixed"
      | other, _ ->
          exit_err
            (Printf.sprintf
               "--fidelity expects exact, fluid or mixed, got %S" other)
    in
    if tails_out <> None && tail_pct = None then exit_err "--tails needs --tail";
    (match (fidelity, tail_pct) with
    | CS.Fluid, Some _ ->
        exit_err
          "--tail needs per-request machinery: use --fidelity exact or mixed"
    | _ -> ());
    let config = Config.make ~cloud runtime in
    let spec = { (cluster_spec ~containers ~connections config) with fidelity } in
    let o =
      run_one ~jobs "cluster"
        ?trace:(Option.map (fun _ -> 1) tail_pct)
        ?telemetry:(Option.map (fun _ -> Xc_sim.Metrics.default_interval_ns) timeseries)
        (Experiments.cluster { spec with load = { spec.load with nodes } })
    in
    print_string o.Run.output;
    (* One track per node, or the single node under the run's name. *)
    let label = Printf.sprintf "cluster/%s" (Config.name config) in
    let tracks ~single f =
      if nodes = 1 then [ (single, f o.Run.pieces.(0)) ]
      else
        Array.to_list
          (Array.mapi
             (fun i p -> (Printf.sprintf "%s/node%d" label i, f p))
             o.Run.pieces)
    in
    let tails =
      match tail_pct with
      | None -> []
      | Some pct ->
          print_tails ~pct ~slowest:0
            (tracks ~single:label (fun p -> p.Run.trace))
            ~none:
              "(no request spans in trace; the exact slice produced no \
               measured requests)\n"
    in
    write_files ~tails
      ~series:(tracks ~single:"cluster/telemetry" (fun p -> p.Run.telemetry))
      { Run.no_files with tails_out; timeseries_out = timeseries }
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Simulate a multi-node container cluster at a chosen fidelity \
             tier: exact event-driven, fluid analytic (MVA), or mixed — \
             fluid bulk with a seeded exact slice for tail attribution.")
    Term.(const run $ fidelity_arg $ sample_rate $ nodes $ containers
          $ connections $ runtime $ cloud $ tail $ tails_out $ timeseries_out
          $ jobs)

(* ---------------- xc causal ---------------- *)

(* Causal what-if profiling: predicted (from the traced baseline's
   attribution) vs actually-rerun virtual speedups over the cluster
   simulation.  The shared flags price one cluster target per runtime;
   pricing happens before tracing is enabled (the platform cost
   queries emit spans themselves). *)
let causal_mech_doc =
  Printf.sprintf "Mechanism to scale: %s."
    (String.concat ", " Xc_obs.Whatif.mechanisms)

(* The shared flags price one cluster target per runtime. *)
let causal_target =
  let connections =
    connections 1
      ~doc:"Closed-loop client connections per container.  1 is the \
            off-knee regime where the linear prediction holds; 5 is the \
            Fig 9 queueing knee where it visibly under-shoots."
  in
  let duration_ms =
    positive_float "duration-ms" ~unit:" of sim-milliseconds" 100. ~docv:"MS"
      ~doc:"Measured window in simulated milliseconds."
  in
  let warmup_ms =
    Arg.(value & opt float 20.
        & info [ "warmup-ms" ] ~docv:"MS" ~doc:"Warmup before the window.")
  in
  let seed =
    Arg.(value & opt (some int) None
        & info [ "seed" ] ~doc:"PRNG seed (default: the platform config's).")
  in
  let make cloud containers connections duration_ms warmup_ms seed =
    if (not (Float.is_finite warmup_ms)) || warmup_ms < 0. || warmup_ms >= duration_ms
    then
      exit_err
        (Printf.sprintf "--warmup-ms expects 0 <= W < duration, got %g" warmup_ms);
    fun runtime ->
      let spec = cluster_spec ~containers ~connections (Config.make ~cloud runtime) in
      let spec =
        {
          spec with
          seed = Option.value seed ~default:spec.seed;
          load = { spec.load with duration_ms; warmup_ms };
        }
      in
      {
        Causal.label =
          Printf.sprintf "%s/c%d" (Spec.runtime_to_string runtime) connections;
        config = List.hd (Driver.cluster spec);
      }
  in
  Term.(const make $ cloud $ containers $ connections $ duration_ms $ warmup_ms
        $ seed)

let print_causal = function
  | Error e -> exit_err e
  | Ok (baselines, points) ->
      List.iter
        (fun (label, b) ->
          print_string (Causal.render_baseline ~label b);
          print_newline ())
        baselines;
      print_string (Causal.render_points points);
      points

let causal_run_cmd =
  let mech =
    Arg.(value & opt string "syscall-entry"
        & info [ "mech"; "m" ] ~docv:"MECH" ~doc:causal_mech_doc)
  in
  let scale =
    Arg.(value & opt float 0.7
        & info [ "scale"; "s" ] ~docv:"S"
            ~doc:"Cost multiplier in [0, 10]: 0.7 asks \"what if this \
                  mechanism were 30% cheaper\".")
  in
  let run runtime target mech scale =
    let jobs = env_jobs () in
    let target = target runtime in
    ignore
      (print_causal
         (Causal.sweep_points ~jobs
            [ (target.Causal.label, target, mech, scale) ]))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"One what-if point: traced baseline, critical-path shares, and \
             the predicted vs actually-rerun speedup.")
    Term.(const run $ runtime $ causal_target $ mech $ scale)

let causal_sweep_cmd =
  let runtimes =
    Arg.(value & opt_all runtime_conv []
        & info [ "runtime"; "r" ]
            ~doc:"Runtime to sweep (repeatable; default docker and \
                  x-container).")
  in
  let mechs =
    Arg.(value & opt_all string []
        & info [ "mech"; "m" ] ~docv:"MECH"
            ~doc:(causal_mech_doc
                 ^ "  Repeatable; default syscall-entry, syscall-work, \
                    ctx-switch."))
  in
  let scales =
    Arg.(value & opt_all float []
        & info [ "scale"; "s" ] ~docv:"S"
            ~doc:"Cost multiplier to sweep (repeatable; default 0.7).")
  in
  let csv_out =
    file_flag "csv"
      ~doc:"Also write every point as CSV (byte-identical across --jobs)."
  in
  let run runtimes target mechs scales csv_out jobs =
    let runtimes =
      if runtimes <> [] then runtimes else [ Config.Docker; Config.X_container ]
    in
    let mechs =
      if mechs <> [] then mechs
      else [ "syscall-entry"; "syscall-work"; "ctx-switch" ]
    in
    let scales = if scales <> [] then scales else [ 0.7 ] in
    let targets = List.map target runtimes in
    let points =
      print_causal (Causal.sweep ~jobs ~targets ~mechs ~scales)
    in
    match csv_out with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Causal.points_csv points));
        Printf.eprintf "[xc causal] wrote %s (%d point(s))\n%!" path
          (List.length points)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"The full what-if grid: one traced baseline per runtime, one \
             re-priced rerun per (runtime x mechanism x scale), predicted \
             vs rerun side by side — byte-identical at any --jobs.")
    Term.(const run $ runtimes $ causal_target $ mechs $ scales $ csv_out $ jobs)

let causal_explain_cmd =
  let slowest =
    slowest 3 ~doc:"Render the K slowest requests' full blame chains."
  in
  let run runtime target slowest =
    let module CP = Xc_obs.Critical_path in
    let target = target runtime in
    let result, ({ trace = captured; _ } : Run.piece) =
      run_cell ~trace:1 ~jobs:1 (fun () -> CS.run target.Causal.config)
    in
    let cp = CP.extract captured.Trace.events in
    let summary = CP.summarize cp in
    Printf.printf "%s: %.0f req/s, mean %.0fus, p99 %.0fus\n\n"
      target.Causal.label result.CS.throughput_rps
      (result.CS.mean_latency_ns /. 1e3)
      (result.CS.p99_latency_ns /. 1e3);
    print_string (CP.render summary);
    List.iteri
      (fun i chain ->
        if i < slowest then begin
          print_newline ();
          print_string (CP.render_chain chain)
        end)
      cp.CP.chains
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Traced critical-path extraction only: the aggregate blame \
             shares plus the slowest requests' full chains (each chain's \
             segments telescope exactly to the request's duration).")
    Term.(const run $ runtime $ causal_target $ slowest)

let causal_cmd =
  Cmd.group
    (Cmd.info "causal"
       ~doc:"Causal what-if profiler: critical-path extraction over the \
             traced cluster sim, plus virtual-speedup experiments — \
             predictions from attribution validated against actually \
             re-priced reruns.")
    [ causal_run_cmd; causal_sweep_cmd; causal_explain_cmd ]

(* ---------------- xc lb ---------------- *)

(* --policy spellings: the Policy kinds plus "subcluster", the
   uniformly-random sub-cluster dispatch the Oracle solves exactly. *)
let lb_policy_names =
  "subcluster, "
  ^ String.concat ", " (List.map Xc_lb.Policy.kind_to_string Xc_lb.Policy.all_kinds)

let lb_dispatch_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "subcluster" | "sub-cluster" -> Xc_lb.Hedge.Subcluster
  | other -> (
      match Xc_lb.Policy.kind_of_string other with
      | Ok k -> Xc_lb.Hedge.Policy k
      | Error _ ->
          exit_err
            (Printf.sprintf "--policy expects one of %s, got %S" lb_policy_names
               s))

let lb_sweep_cmd =
  let policy =
    Arg.(value & opt string "subcluster"
        & info [ "policy"; "p" ] ~docv:"POLICY"
            ~doc:"Clone-set dispatch: subcluster (the Oracle-exact random \
                  sub-cluster reference), round-robin, least-loaded, po2c \
                  or jsq.")
  in
  let clones =
    Arg.(value & opt int 1
        & info [ "clones"; "d" ] ~docv:"D"
            ~doc:"Clone factor: each request runs on D distinct backends \
                  with synchronized service and cancel-on-first-complete \
                  (1 = no hedging).")
  in
  let backends =
    positive_int "backends" ~aliases:[ "n" ] 6 ~doc:"PS backends in the cluster."
  in
  let utilizations =
    checked "utilizations" ~aliases:[ "u" ] (Arg.list float_arg)
      ~ok:(fun us -> us <> [] && List.for_all (fun u -> u > 0. && u < 1.) us)
      ~expects:"per-backend loads in (0, 1)" [ 0.3; 0.5; 0.7 ] ~docv:"LIST"
      ~doc:"Comma list of per-backend utilizations (clones included) to \
            sweep."
  in
  let duration_ms =
    duration_ms 3000. ~doc:"Measured arrival window in simulated milliseconds."
  in
  let seed = Arg.(value & opt int 17 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run policy clones backends utilizations duration_ms seed =
    let jobs = env_jobs () in
    let dispatch = lb_dispatch_of_string policy in
    if clones < 1 || clones > backends then
      exit_err
        (Printf.sprintf
           "--clones expects 1 <= D <= backends (%d), got %d" backends clones);
    (match dispatch with
    | Xc_lb.Hedge.Subcluster when backends mod clones <> 0 ->
        exit_err
          (Printf.sprintf
             "subcluster dispatch needs --clones to divide --backends, got %d \
              and %d"
             clones backends)
    | _ -> ());
    print_string
      (run_one ~jobs "lb sweep"
         (Experiments.lb_sweep ~backends ~clones ~dispatch ~seed ~duration_ms
            ~utilizations))
        .Run.output
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep the PS cloning simulator over utilizations and compare \
             against the analytic M/PS oracle.")
    Term.(const run $ policy $ clones $ backends $ utilizations $ duration_ms
          $ seed)

let lb_tail_cmd =
  let connections =
    connections Spec.cluster.load.connections
      ~doc:"Closed-loop connections per container; at the default 5 the \
            vCPU saturates and the queueing tail is what the policies \
            compete over."
  in
  let policy =
    Arg.(value & opt (some string) None
        & info [ "policy"; "p" ] ~docv:"POLICY"
            ~doc:"Run only this policy (round-robin, least-loaded, po2c, \
                  jsq); default compares all four.")
  in
  let clones =
    Arg.(value & opt (some int) None
        & info [ "clones"; "d" ] ~docv:"D"
            ~doc:"Run only this clone factor; default compares 1 and 2.")
  in
  let tail =
    tail ~default:"p99"
      ~doc:"Tail percentile cut for the trace diff (e.g. p99, 99.9)." ()
  in
  let run runtime cloud containers connections policy clones pct jobs =
    let pct = Option.get pct in
    let kinds =
      match policy with
      | None -> Xc_lb.Policy.all_kinds
      | Some s -> (
          match lb_dispatch_of_string s with
          | Xc_lb.Hedge.Policy k -> [ k ]
          | Xc_lb.Hedge.Subcluster ->
              exit_err
                "subcluster is the PS-oracle reference dispatch; the cluster \
                 driver routes with a policy (round-robin, least-loaded, \
                 po2c, jsq)")
    in
    let clone_grid =
      match clones with
      | None -> List.filter (fun d -> d <= containers) [ 1; 2 ]
      | Some d when d >= 1 && d <= containers -> [ d ]
      | Some d ->
          exit_err
            (Printf.sprintf
               "--clones expects 1 <= D <= containers (%d), got %d" containers d)
    in
    let config = Config.make ~cloud runtime in
    let spec = cluster_spec ~containers ~connections config in
    let rows =
      List.map fst
        (Run.map ~jobs
           (Experiments.race spec
              (List.concat_map (fun k -> List.map (fun d -> (k, d)) clone_grid) kinds)))
    in
    let report, winner = Experiments.race_report spec rows in
    print_report report;
    (* Trace the baseline and the winner and attribute the gap to
       mechanisms, the same machinery as `xc trace tails`. *)
    let k, d = Option.get winner.combo and name = Config.name config in
    match
      traced_tails ~pct ~jobs
        [
          ("cluster/" ^ name, (List.hd rows).config);
          ( Printf.sprintf "cluster/%s+%s-x%d" name (Xc_lb.Policy.kind_to_string k) d,
            winner.config );
        ]
    with
    | _, [ ta; tb ] -> print_string (Xc_trace.Diff.render_tails ~a:ta ~b:tb)
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "tail"
       ~doc:"Race the hedging policy/clone grid against the home-pinned \
             Fig 9 cluster baseline and attribute the winning tail delta \
             to mechanisms.")
    Term.(const run $ runtime $ cloud $ containers $ connections $ policy
          $ clones $ tail $ jobs)

let lb_cmd =
  Cmd.group
    (Cmd.info "lb"
       ~doc:"Load-balancing policies and request hedging: the PS cloning \
             sweep against the analytic oracle, and the Fig 9 \
             queueing-tail policy race.")
    [ lb_sweep_cmd; lb_tail_cmd ]

(* ---------------- suite ---------------- *)

module Suite = Xc_suite.Suite
module Suite_registry = Xc_suite.Registry

(* A runnable suite: a [Registry.named] entry or a spec file on disk.
   A bench experiment is not a suite — its grid lives in
   Xc_suite.Experiments — so point at the bench instead. *)
let resolve_runnable name =
  match Suite_registry.find_named name with
  | Some s -> Ok s
  | None ->
      if Sys.file_exists name then
        Result.map_error (fun e -> name ^ ": " ^ e) (Suite.parse_file name)
      else if Xcontainers.Inventory.find name <> None then
        Error
          (Printf.sprintf
             "%S is a bench experiment suite; run it with the bench harness \
              (dune exec bench/main.exe -- %s)"
             name name)
      else
        Error
          (Printf.sprintf
             "unknown suite %S: expected a named suite (%s) or a spec file \
              path"
             name
             (String.concat " " Suite_registry.named_names))

let suite_name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"NAME|FILE"
        ~doc:"A named suite or the path of a key=value spec file.")

let suite_list_cmd =
  let run () =
    print_endline "runnable named suites (xc suite run NAME):";
    List.iter
      (fun (name, (s : Suite.t)) ->
        Printf.printf "  %-16s %d experiment(s)\n" name (List.length s.Suite.specs))
      Suite_registry.named
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the named suites and their experiment counts.")
    Term.(const run $ const ())

let suite_show_cmd =
  let run name =
    match resolve_runnable name with
    | Error e -> exit_err e
    | Ok s -> print_string (Suite.print s)
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print a suite's canonical spec text (for a file: parse, \
             validate and reprint — the round-trip form).")
    Term.(const run $ suite_name_arg)

let suite_run_cmd =
  let csv_out = file_flag "csv" ~doc:"Also write the result rows as CSV." in
  let run name jobs csv_out tails_out ts_out =
    match resolve_runnable name with
    | Error e -> exit_err e
    | Ok suite ->
        (* The generic driver reads no [param.*] field: running one
           would silently ignore it. *)
        List.iter
          (fun (s : Xc_suite.Spec.t) ->
            match s.Xc_suite.Spec.params with
            | [] -> ()
            | (k, _) :: _ ->
                exit_err
                  (Printf.sprintf
                     "experiment %s: field param.%s: the generic driver \
                      reads no param.* field"
                     s.Xc_suite.Spec.name k))
          suite.Suite.specs;
        let wants_trace = Driver.wants_trace suite in
        let wants_ts = Driver.wants_timeseries suite in
        if tails_out <> None && not wants_trace then
          Printf.eprintf
            "[xc suite] warning: --tails given but no spec enables \
             trace/tails capture; the artifact will be empty\n%!";
        if ts_out <> None && not wants_ts then
          Printf.eprintf
            "[xc suite] warning: --timeseries given but no spec enables \
             timeseries capture; the artifact will be empty\n%!";
        (* The bench's runner and suite report: one cell per spec, so
           the pieces are per-spec tracks. *)
        let o =
          run_one ~jobs suite.Suite.name (Run.suite suite)
            ?trace:(if wants_trace then Some (Driver.sample_stride suite) else None)
            ?telemetry:
              (if wants_ts then Some (float_of_int (Driver.interval_us suite) *. 1e3)
               else None)
        in
        print_string o.Run.output;
        let per_spec f =
          List.map2
            (fun (s : Xc_suite.Spec.t) p -> (s.Xc_suite.Spec.name, f p))
            suite.Suite.specs (Array.to_list o.Run.pieces)
        in
        (match csv_out with
        | None -> ()
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                List.iter
                  (fun t -> output_string oc (Xc_sim.Table.to_csv t))
                  (Run.tables o.Run.report));
            Printf.eprintf "[xc suite] wrote %s\n%!" path);
        let tails =
          if tails_out = None then []
          else
            match Run.tails ~pct:99. (per_spec (fun p -> p.Run.trace)) with
            | Error e -> exit_err e
            | Ok tails -> tails
        in
        List.iter
          (Printf.eprintf "[xc suite] wrote %s\n%!")
          (Run.write ~tails
             ~series:(per_spec (fun p -> p.Run.telemetry))
             { Run.no_files with tails_out; timeseries_out = ts_out });
        Printf.eprintf "[xc suite] %d experiment(s), %d domain(s), %d events\n%!"
          (List.length suite.Suite.specs)
          jobs
          (Array.fold_left (fun a p -> a + p.Run.events) 0 o.Run.pieces)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a named suite or a spec file through the bench's runner: \
             every experiment is one pool cell, output and artifacts are \
             byte-identical at any --jobs.  Capture is enabled by the specs \
             (trace/tails, timeseries), not by the file flags: --tails and \
             --timeseries write one track per spec.")
    Term.(const run $ suite_name_arg $ jobs $ csv_out $ tails_out
          $ timeseries_out)

let suite_cmd =
  Cmd.group
    (Cmd.info "suite"
       ~doc:"Declarative experiment suites: list the named suites, print \
             canonical spec text, run specs through the generic driver.")
    [ suite_list_cmd; suite_show_cmd; suite_run_cmd ]

(* ---------------- main ---------------- *)

let () =
  let info =
    Cmd.info "xc" ~version:"1.0.0"
      ~doc:"X-Containers (ASPLOS'19) reproduction playground."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            boot_cmd;
            abom_cmd;
            platforms_cmd;
            syscall_costs_cmd;
            profile_cmd;
            profiles_cmd;
            boot_times_cmd;
            migrate_cmd;
            clone_cmd;
            security_cmd;
            coldstart_cmd;
            build_binary_cmd;
            patch_binary_cmd;
            disasm_cmd;
            profile_binary_cmd;
            experiments_cmd;
            run_app_cmd;
            sweep_cmd;
            trace_cmd;
            top_cmd;
            cluster_cmd;
            causal_cmd;
            lb_cmd;
            suite_cmd;
          ]))
