(* Tests for the experiment inventory and workload descriptions: the
   registry, the harness and the docs must agree, and every lib/ module
   must be reached from the bench or xc. *)

let bench_targets =
  (* The bench experiment names, straight from the suite registry: the
     single source the bench harness itself interprets ("micro" and
     "csv" are utilities, not experiments, and carry no spec). *)
  Xc_suite.Registry.bench_names

let test_inventory_covers_bench () =
  List.iter
    (fun target ->
      Alcotest.(check bool)
        (Printf.sprintf "inventory has %s" target)
        true
        (Xcontainers.Inventory.find target <> None))
    bench_targets;
  Alcotest.(check int) "no stale inventory entries" (List.length bench_targets)
    (List.length Xcontainers.Inventory.all)

let test_registry_agrees_with_bench () =
  (* The registry's bench list is the 21 baseline experiments in bench
     order; every one resolves to a validated suite with canonical spec
     text, and the smoke list extends — never contradicts — it. *)
  Alcotest.(check int) "twenty-one bench suites" 21 (List.length bench_targets);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " resolves") true
        (Xc_suite.Registry.find_bench name <> None);
      match Xc_suite.Registry.spec_text name with
      | None -> Alcotest.fail (name ^ " has no spec text")
      | Some text -> (
          match Xc_suite.Suite.parse text with
          | Error e -> Alcotest.fail (name ^ ": " ^ e)
          | Ok reparsed ->
              Alcotest.(check string)
                (name ^ " spec text round-trips") text
                (Xc_suite.Suite.print reparsed)))
    bench_targets;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " is a bench or smoke suite")
        true
        (Xc_suite.Registry.find_bench name <> None
        || Xc_suite.Registry.find_smoke name <> None))
    Xc_suite.Registry.smoke_names

let test_inventory_structure () =
  Alcotest.(check int) "eight paper entries" 8
    (List.length Xcontainers.Inventory.paper_entries);
  Alcotest.(check int) "thirteen extensions" 13
    (List.length Xcontainers.Inventory.extension_entries);
  List.iter
    (fun (e : Xcontainers.Inventory.entry) ->
      Alcotest.(check bool) (e.id ^ " names modules") true (e.modules <> []);
      Alcotest.(check bool) (e.id ^ " has a paper ref") true (e.paper_ref <> ""))
    Xcontainers.Inventory.all

let test_workloads () =
  Alcotest.(check bool) "ab closes connections" false Xc_apps.Workloads.ab.keepalive;
  Alcotest.(check bool) "wrk keeps alive" true Xc_apps.Workloads.wrk.keepalive;
  (match Xc_apps.Workloads.memtier.set_get_ratio with
  | Some (1, 10) -> ()
  | _ -> Alcotest.fail "memtier must be 1:10 SET:GET (Section 5.3)");
  Alcotest.(check int) "fig8 wrk: 5 connections" 5
    Xc_apps.Workloads.wrk_scalability.connections;
  Alcotest.(check bool) "find" true (Xc_apps.Workloads.find "memtier" <> None);
  Alcotest.(check bool) "find missing" true (Xc_apps.Workloads.find "jmeter" = None);
  let cfg = Xc_apps.Workloads.closed_loop_config Xc_apps.Workloads.ab in
  Alcotest.(check int) "config carries connections" 100
    cfg.Xc_platforms.Closed_loop.connections

(* ---------------- Reachability ---------------- *)

(* Every lib/ module must be reached from the bench or xc, so a model
   that no experiment runs cannot regrow beside the priced path.  The
   module graph comes from source.  Module [M] of the library whose
   namespace is [L] is used where [L.M] appears; inside [L]'s own files
   [M.] and [module X = M] also count.  A constructor never counts: not
   [| Epoll ->], not [K.Epoll], and [Xc_os.Kernel.Epoll] uses only
   [Kernel]. *)

(* [src] with every comment and string literal blanked.  Comments nest
   and may hold strings; char literals are skipped so that ['"'] opens
   no string. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let at i s = i + String.length s <= n && String.sub src i (String.length s) = s in
  let rec string_end i =
    if i >= n then n
    else match src.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  (* Past a char literal at [i]; [i + 1] past a type variable's tick. *)
  let char_end i =
    if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then i + 3
    else if i + 3 < n && src.[i + 1] = '\\' then
      match String.index_from_opt src (i + 3) '\'' with
      | Some j when j <= i + 5 -> j + 1
      | _ -> i + 1
    else i + 1
  in
  let rec comment_end i depth =
    if i >= n then n
    else if at i "*)" then if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else if at i "(*" then comment_end (i + 2) (depth + 1)
    else if src.[i] = '"' then comment_end (string_end (i + 1)) depth
    else if src.[i] = '\'' then comment_end (char_end i) depth
    else comment_end (i + 1) depth
  in
  let rec go i =
    if i < n then
      let j =
        if at i "(*" then comment_end (i + 2) 1
        else if src.[i] = '"' then string_end (i + 1)
        else i
      in
      if j > i then begin
        Bytes.fill out i (j - i) ' ';
        go j
      end
      else go (if src.[i] = '\'' then char_end i else i + 1)
  in
  go 0;
  Bytes.to_string out

type token =
  | Path of string list * bool  (** capitalised names; a [.] follows *)
  | Word of string
  | Sym of char

let tokens src =
  let s = strip src in
  let n = String.length s in
  let is_ident = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
    | _ -> false
  in
  let rec ident_end i = if i < n && is_ident s.[i] then ident_end (i + 1) else i in
  let rec path i names =
    let j = ident_end i in
    let names = String.sub s i (j - i) :: names in
    if j + 1 < n && s.[j] = '.' && s.[j + 1] >= 'A' && s.[j + 1] <= 'Z' then
      path (j + 1) names
    else (List.rev names, j)
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | 'A' .. 'Z' when i = 0 || s.[i - 1] <> '`' ->
          let names, j = path i [] in
          go j (Path (names, j < n && s.[j] = '.') :: acc)
      | c when is_ident c ->
          let j = ident_end i in
          go j (Word (String.sub s i (j - i)) :: acc)
      | c -> go (i + 1) (Sym c :: acc)
  in
  go 0 []

(* The [(namespace, module)] pairs [src] uses.  [libs] lists each
   library's namespace with its modules; [own] is the namespace of the
   library [src] belongs to, if any. *)
let uses ~libs ~own src =
  let mem l m = match List.assoc_opt l libs with Some ms -> List.mem m ms | None -> false in
  let sibling m = match own with Some l when mem l m -> [ (l, m) ] | _ -> [] in
  let rec qualified = function
    | l :: (m :: _ as rest) -> (if mem l m then [ (l, m) ] else []) @ qualified rest
    | _ -> []
  in
  let rec walk = function
    | [] -> []
    | Word "module" :: Path ([ _ ], _) :: Sym '=' :: (Path (m :: _, _) :: _ as rest) ->
        sibling m @ walk rest
    | Path ((m :: tail as names), dot) :: rest ->
        (if tail <> [] || dot then sibling m else []) @ qualified names @ walk rest
    | _ :: rest -> walk rest
  in
  List.sort_uniq compare (walk (tokens src))

let read file = In_channel.with_open_bin file In_channel.input_all

(* The source root: the test runs in _build/default/test under dune,
   or at the repository root when started by hand. *)
let root = if Sys.file_exists "../bin/xc.ml" then ".." else "."

(* Each library under lib/ as (directory, namespace, modules).  The
   namespace is the [(name ...)] of its dune file; a file named after
   the namespace (lib/core/xcontainers.ml) is the namespace itself, so
   its re-exports are not uses. *)
let libraries () =
  let lib = Filename.concat root "lib" in
  let library_name dune =
    let words =
      String.map (function '(' | ')' | '\n' | '\t' -> ' ' | c -> c) dune
      |> String.split_on_char ' '
      |> List.filter (( <> ) "")
    in
    let rec find = function
      | "name" :: name :: _ -> name
      | _ :: rest -> find rest
      | [] -> Alcotest.fail "a lib/ dune file without (name ...)"
    in
    find words
  in
  Sys.readdir lib |> Array.to_list |> List.sort compare
  |> List.map (fun d ->
         let dir = Filename.concat lib d in
         let ns = String.capitalize_ascii (library_name (read (Filename.concat dir "dune"))) in
         let modules =
           Sys.readdir dir |> Array.to_list
           |> List.filter_map (fun f ->
                  if Filename.check_suffix f ".ml" then
                    Some (String.capitalize_ascii (Filename.chop_suffix f ".ml"))
                  else None)
           |> List.filter (( <> ) ns)
           |> List.sort compare
         in
         (dir, ns, modules))

(* Every lib/ module, and the ones reached from bench/main.ml and
   bin/xc.ml, both as "Namespace.Module". *)
let graph =
  lazy
    (let libs = libraries () in
     let names = List.map (fun (_, ns, ms) -> (ns, ms)) libs in
     let used ~own file = uses ~libs:names ~own (read file) in
     let files (l, m) =
       let dir, _, _ = List.find (fun (_, ns, _) -> ns = l) libs in
       List.map (fun ext -> Filename.concat dir (String.uncapitalize_ascii m ^ ext)) [ ".ml"; ".mli" ]
       |> List.filter Sys.file_exists
     in
     let rec close seen = function
       | [] -> seen
       | m :: todo when List.mem m seen -> close seen todo
       | ((l, _) as m) :: todo ->
           close (m :: seen) (List.concat_map (used ~own:(Some l)) (files m) @ todo)
     in
     let roots =
       List.concat_map
         (fun f -> used ~own:None (Filename.concat root f))
         [ "bench/main.ml"; "bin/xc.ml" ]
     in
     let show (l, m) = l ^ "." ^ m in
     ( List.concat_map (fun (_, ns, ms) -> List.map (fun m -> show (ns, m)) ms) libs,
       List.map show (close [] roots) ))

let test_every_module_reached () =
  let all, reached = Lazy.force graph in
  Alcotest.(check (list string))
    "lib/ modules neither bench/main.ml nor bin/xc.ml reaches" []
    (List.filter (fun m -> not (List.mem m reached)) all)

let test_inventory_modules_reached () =
  let _, reached = Lazy.force graph in
  Alcotest.(check (list string))
    "inventory modules that are not reached" []
    (List.concat_map
       (fun (e : Xcontainers.Inventory.entry) ->
         List.filter_map
           (fun m -> if List.mem m reached then None else Some (e.id ^ ": " ^ m))
           e.modules)
       Xcontainers.Inventory.all)

let test_scanner () =
  let libs = [ ("Xc_os", [ "Epoll"; "Kernel" ]); ("Xc_hypervisor", [ "Tmem" ]) ] in
  let case name ?own src expected =
    Alcotest.(check (list (pair string string))) name expected (uses ~libs ~own src)
  in
  let kernel = [ ("Xc_os", "Kernel") ] in
  case "constructor named like a sibling" ~own:"Xc_os" "match op with | Epoll -> 1 | _ -> 0" [];
  case "constructor through an alias" "let ops = [ K.Epoll; K.Socket_recv 64 ]" [];
  case "qualified constructor" "let op = Xc_os.Kernel.Epoll" kernel;
  case "name in a comment" "(* Xc_hypervisor.Tmem (* nested *) \"*)\" *) let x = 1" [];
  case "name in a string" "let m = [ \"Xc_hypervisor.Tmem\" ]" [];
  case "char literal opens no string" "let q = '\"' let k = Xc_os.Kernel.create" kernel;
  case "alias" "module K = Xc_os.Kernel" kernel;
  case "sibling alias" ~own:"Xc_os" "module K = Kernel" kernel;
  case "sibling projection" ~own:"Xc_os" "let k = Kernel.create ()" kernel;
  case "polymorphic variant" ~own:"Xc_os" "let v = `Kernel" []

let suites =
  [
    ( "core.inventory",
      [
        Alcotest.test_case "covers bench targets" `Quick test_inventory_covers_bench;
        Alcotest.test_case "registry agrees with bench" `Quick
          test_registry_agrees_with_bench;
        Alcotest.test_case "structure" `Quick test_inventory_structure;
        Alcotest.test_case "workloads" `Quick test_workloads;
        Alcotest.test_case "every lib module reached" `Quick test_every_module_reached;
        Alcotest.test_case "inventory modules reached" `Quick
          test_inventory_modules_reached;
        Alcotest.test_case "reachability scanner" `Quick test_scanner;
      ] );
  ]
