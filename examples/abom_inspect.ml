(* ABOM under the microscope: build a small binary with each wrapper
   style, disassemble it, let the patcher rewrite it on the first trap,
   and disassemble it again — Figure 2 of the paper, live.

   Run with:  dune exec examples/abom_inspect.exe *)

open Xc_isa

let show_site title (prog : Builder.program) (site : Builder.site) =
  Format.printf "--- %s (%s, syscall %d) ---@." title
    (Builder.style_to_string site.style)
    site.sysno;
  let len =
    match site.style with
    | Builder.Glibc_wide | Builder.Cancellable -> 10
    | Builder.Exotic -> 11
    | Builder.Glibc_small | Builder.Go_stack -> 8
  in
  print_endline (Image.disassemble_range prog.image ~off:site.wrapper_off ~len);
  print_newline ()

let () =
  let prog =
    Builder.build
      [
        (Builder.Glibc_small, 0) (* read: the 7-byte case 1 *);
        (Builder.Glibc_wide, 15) (* rt_sigreturn: the 9-byte two-phase *);
        (Builder.Go_stack, 39) (* getpid via the Go pattern: case 2 *);
        (Builder.Cancellable, 1) (* write via libpthread: unpatchable online *);
      ]
  in
  print_endline "================ BEFORE PATCHING ================";
  List.iter (fun site -> show_site "original" prog site) prog.sites;

  (* Run the program once under the X-Kernel: each syscall traps and
     ABOM inspects and (where possible) rewrites the site. *)
  let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
  let config = Xc_abom.Patcher.machine_config patcher () in
  let machine = Machine.create ~config prog.image ~entry:prog.entry in
  (match Machine.run machine with
  | Machine.Halted -> ()
  | Fault msg -> failwith msg
  | Fuel_exhausted -> failwith "fuel");

  print_endline "================ AFTER ONE EXECUTION ================";
  List.iter (fun site -> show_site "patched" prog site) prog.sites;

  Format.printf "patch outcomes:@.";
  List.iter
    (fun (outcome, n) ->
      Format.printf "  %-20s %d@." (Xc_abom.Patcher.outcome_to_string outcome) n)
    (Xc_abom.Patcher.outcomes patcher);
  Format.printf "atomic cmpxchg stores used: %d@." (Xc_abom.Patcher.cmpxchg_ops patcher);

  (* Run again: everything patchable now goes through function calls. *)
  Machine.clear_events machine;
  Machine.reset machine ~entry:prog.entry;
  ignore (Machine.run machine);
  Format.printf "second run: %d function-call syscalls, %d trapped@."
    (Machine.syscall_count machine `Fast)
    (Machine.syscall_count machine `Trap);

  (* The offline tool can still rescue the cancellable site. *)
  let report = Xc_abom.Offline_tool.patch_image ~aggressive:true patcher prog.image in
  Format.printf "offline tool: %a@." Xc_abom.Offline_tool.pp_report report;
  Machine.clear_events machine;
  Machine.reset machine ~entry:prog.entry;
  ignore (Machine.run machine);
  Format.printf "after offline patch: %d function-call syscalls, %d trapped@."
    (Machine.syscall_count machine `Fast)
    (Machine.syscall_count machine `Trap)
