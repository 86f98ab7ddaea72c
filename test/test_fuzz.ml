(* Fuzz and model-based property tests: the decoder and interpreter must
   be total on arbitrary bytes, the patcher idempotent, and the stateful
   structures equivalent to simple reference models. *)

open Xc_isa

let bytes_gen =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:(char_range '\x00' '\xff') (int_range 1 256)))

let arb_bytes = QCheck.make ~print:(fun b -> Printf.sprintf "%d bytes" (Bytes.length b)) bytes_gen

(* ---------------- decoder totality ---------------- *)

let decode_total =
  QCheck.Test.make ~name:"decode is total and progresses" ~count:500 arb_bytes
    (fun buf ->
      let rec check off =
        if off >= Bytes.length buf then true
        else begin
          let _insn, len = Codec.decode buf off in
          len >= 1 && len <= 7 && off + len <= Bytes.length buf + 7 && check (off + len)
        end
      in
      check 0)

let decode_all_covers =
  QCheck.Test.make ~name:"decode_all tiles the buffer" ~count:500 arb_bytes
    (fun buf ->
      let decoded = Codec.decode_all buf in
      let total =
        List.fold_left (fun acc (_, insn) -> acc + Insn.length insn) 0 decoded
      in
      (* The last instruction may claim its full encoded length even if
         the tail was truncated to an Invalid byte; the tiling property
         is that offsets are strictly increasing and start at 0. *)
      let offsets = List.map fst decoded in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      (match offsets with [] -> Bytes.length buf = 0 | o :: _ -> o = 0)
      && increasing offsets
      && total >= Bytes.length buf)

let disassemble_total =
  QCheck.Test.make ~name:"disassemble never raises" ~count:200 arb_bytes
    (fun buf ->
      let s = Codec.disassemble buf in
      String.length s >= 0)

(* ---------------- interpreter totality ---------------- *)

let machine_total_on_garbage =
  QCheck.Test.make ~name:"machine total on random code" ~count:300 arb_bytes
    (fun code ->
      let img = Image.create ~size:(Bytes.length code) () in
      (match Image.write img ~off:0 code ~wp_override:true with
      | Ok () -> ()
      | Error _ -> ());
      let m = Machine.create img ~entry:0 in
      match Machine.run ~fuel:2_000 m with
      | Machine.Halted | Machine.Fuel_exhausted | Machine.Fault _ -> true)

let machine_total_with_xkernel_config =
  QCheck.Test.make ~name:"machine total with fixups enabled" ~count:300 arb_bytes
    (fun code ->
      let img = Image.create ~size:(Bytes.length code) () in
      (match Image.write img ~off:0 code ~wp_override:true with
      | Ok () -> ()
      | Error _ -> ());
      let table = Xc_abom.Entry_table.create () in
      (* Register a handful of entries so stray calls can resolve. *)
      for i = 0 to 9 do
        ignore (Xc_abom.Entry_table.address_of table i)
      done;
      let config =
        Machine.xcontainer_config ~lookup:(Xc_abom.Entry_table.lookup table) ()
      in
      let m = Machine.create ~config img ~entry:0 in
      match Machine.run ~fuel:2_000 m with
      | Machine.Halted | Machine.Fuel_exhausted | Machine.Fault _ -> true)

(* ---------------- patcher properties ---------------- *)

let style_gen =
  QCheck.Gen.oneofl
    Builder.[ Glibc_small; Glibc_wide; Go_stack; Cancellable; Exotic ]

let program_gen =
  QCheck.Gen.(list_size (int_range 1 6) (pair style_gen (int_range 0 300)))

let arb_program =
  QCheck.make
    ~print:(fun ws ->
      String.concat ";"
        (List.map (fun (s, n) -> Printf.sprintf "%s:%d" (Builder.style_to_string s) n) ws))
    program_gen

let patch_idempotent =
  QCheck.Test.make ~name:"patching twice changes nothing more" ~count:200
    arb_program (fun wrappers ->
      let prog = Builder.build wrappers in
      let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
      List.iter
        (fun (s : Builder.site) ->
          ignore (Xc_abom.Patcher.patch_site patcher prog.image ~syscall_off:s.syscall_off))
        prog.sites;
      let snapshot = Bytes.copy (Image.code prog.image) in
      let ops_before = Xc_abom.Patcher.cmpxchg_ops patcher in
      List.iter
        (fun (s : Builder.site) ->
          ignore (Xc_abom.Patcher.patch_site patcher prog.image ~syscall_off:s.syscall_off))
        prog.sites;
      Bytes.equal snapshot (Image.code prog.image)
      && Xc_abom.Patcher.cmpxchg_ops patcher = ops_before)

let offline_equivalence =
  QCheck.Test.make ~name:"offline-patched binary trace-equivalent" ~count:150
    arb_program (fun wrappers ->
      let reference =
        let prog = Builder.build wrappers in
        let m = Machine.create prog.image ~entry:prog.entry in
        ignore (Machine.run m);
        Machine.syscall_numbers m
      in
      let patched =
        let prog = Builder.build wrappers in
        let patcher = Xc_abom.Patcher.create (Xc_abom.Entry_table.create ()) in
        ignore (Xc_abom.Offline_tool.patch_image ~aggressive:true patcher prog.image);
        let config =
          Machine.xcontainer_config
            ~lookup:(Xc_abom.Entry_table.lookup (Xc_abom.Patcher.table patcher))
            ()
        in
        let m = Machine.create ~config prog.image ~entry:prog.entry in
        ignore (Machine.run m);
        Machine.syscall_numbers m
      in
      reference = patched)

let entry_table_roundtrip =
  QCheck.Test.make ~name:"entry table address/lookup roundtrip" ~count:300
    QCheck.(int_range 0 (Xc_abom.Entry_table.max_syscalls - 1))
    (fun n ->
      let t = Xc_abom.Entry_table.create () in
      let addr = Xc_abom.Entry_table.address_of t n in
      match Xc_abom.Entry_table.lookup t addr with
      | Some (Machine.Fixed m) -> m = n
      | _ -> false)

(* ---------------- page table vs a reference model ---------------- *)

module IntMap = Map.Make (Int)

(* Each op maps (or remaps) one page, global or not. *)
let pt_ops_arb =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
    QCheck.Gen.(list_size (int_range 0 200) (pair (int_range 0 40) bool))

let page_table_model =
  QCheck.Test.make ~name:"page table agrees with a Map model" ~count:200 pt_ops_arb
    (fun ops ->
      let table = Xc_mem.Page_table.create () in
      let model =
        List.fold_left
          (fun model (vpn, global) ->
            let pte = Xc_mem.Pte.make ~global ~pfn:vpn () in
            Xc_mem.Page_table.map table ~vpn pte;
            IntMap.add vpn pte model)
          IntMap.empty ops
      in
      let count_ok = Xc_mem.Page_table.entry_count table = IntMap.cardinal model in
      let globals_ok =
        Xc_mem.Page_table.global_count table
        = IntMap.fold (fun _ p acc -> if p.Xc_mem.Pte.global then acc + 1 else acc) model 0
      in
      let lookups_ok =
        List.for_all
          (fun vpn ->
            Xc_mem.Page_table.lookup table ~vpn = IntMap.find_opt vpn model)
          (List.init 41 (fun i -> i))
      in
      count_ok && globals_ok && lookups_ok)

let xelf_total =
  QCheck.Test.make ~name:"xelf deserialize total on garbage" ~count:300 arb_bytes
    (fun blob ->
      match Xelf.deserialize blob with Ok _ | Error _ -> true)

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let suites =
  [
    ( "fuzz.codec",
      qsuite [ decode_total; decode_all_covers; disassemble_total; xelf_total ] );
    ( "fuzz.machine",
      qsuite [ machine_total_on_garbage; machine_total_with_xkernel_config ] );
    ( "fuzz.abom",
      qsuite [ patch_idempotent; offline_equivalence; entry_table_roundtrip ] );
    ("fuzz.mem", qsuite [ page_table_model ]);
  ]
