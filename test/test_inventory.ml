(* Tests for the experiment inventory: the inventory, the bench harness
   and the named suites must agree, every lib/ module and value must be
   reached from the bench or xc, and only Xc_suite.Driver prices a
   closed-loop or cluster point. *)

let read file = In_channel.with_open_bin file In_channel.input_all

(* The source root: the test runs in _build/default/test under dune,
   or at the repository root when started by hand. *)
let root = if Sys.file_exists "../bin/xc.ml" then ".." else "."

(* The ids the experiments' [printer] match maps, in source order: its
   [| "ID" ->] cases up to the catch-all one. *)
let printer_cases () =
  let rec find = function
    | [] -> Alcotest.fail "lib/suite/experiments.ml has no [let printer = function]"
    | l :: rest -> if l = "let printer = function" then cases [] rest else find rest
  and cases acc = function
    | [] -> List.rev acc
    | l :: rest -> (
        let l = String.trim l in
        match Scanf.sscanf_opt l "| %S ->" Fun.id with
        | Some id -> cases (id :: acc) rest
        | None -> if String.starts_with ~prefix:"|" l then List.rev acc else cases acc rest)
  in
  find
    (String.split_on_char '\n'
       (read (Filename.concat root "lib/suite/experiments.ml")))

let test_inventory_covers_bench () =
  Alcotest.(check (list string))
    "bench printer cases, in inventory order"
    (List.map (fun (e : Xcontainers.Inventory.entry) -> e.id) Xcontainers.Inventory.all)
    (printer_cases ())

let test_registry_agrees_with_bench () =
  (* Every named suite prints canonical text that parses back to
     itself, and none takes an inventory id: [xc suite run] resolves
     named suites first, so one would shadow a bench experiment. *)
  List.iter
    (fun (name, suite) ->
      Alcotest.(check bool)
        (name ^ " is not an inventory id") true
        (Xcontainers.Inventory.find name = None);
      let text = Xc_suite.Suite.print suite in
      match Xc_suite.Suite.parse text with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok reparsed ->
          Alcotest.(check string)
            (name ^ " spec text round-trips") text
            (Xc_suite.Suite.print reparsed))
    Xc_suite.Registry.named

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

(* ---------------- Value reachability ---------------- *)

(* Every exported value must be used as well, so a second model of a
   mechanism cannot hide inside a reached module.  A [val] of
   [lib/L/m.mli] is used when a caller names it: bench/main.ml,
   bin/xc.ml, an example, a perf/ file, or a lib/ file other than
   [m.ml].  These forms name it: [L.M.v]; [X.v] after [module X = L.M];
   [M.v] inside library [L] or after [open L]; a bare [v] under
   [open L.M], [let open L.M in], [L.M.( ... )] or [include L.M].  A
   signature nested in [m.mli] ([module Shard : sig ... end]) is a module
   of its own.  Record fields ([r.M.f], [{ M.f = ... }]) and
   constructors are not values. *)

(* What a module path names: a library's namespace, or one of its
   modules with the path of a signature nested in it. *)
type target = Lib of string | Mod of string * string list

(* The values an .mli declares, as [(path, name)]: [path] is [[]] at
   top level and [["Shard"]] inside [module Shard : sig ... end].  A
   [module type] declares none. *)
let declared mli =
  let rec go stack acc = function
    | [] -> List.rev acc
    | Word "module" :: Path ([ m ], _) :: Sym ':' :: Word "sig" :: rest ->
        go (Some m :: stack) acc rest
    | Word ("sig" | "object") :: rest -> go (None :: stack) acc rest
    | Word "end" :: rest -> go (match stack with _ :: s -> s | [] -> []) acc rest
    | Word "val" :: Word v :: rest when List.for_all Option.is_some stack ->
        go stack ((List.rev_map Option.get stack, v) :: acc) rest
    | _ :: rest -> go stack acc rest
  in
  go [] [] (tokens mli)

(* The [((namespace, path), value)] pairs [src] names.  [libs] maps
   each namespace to its modules; [umbrella] maps ["Ns.A"] to what a
   namespace file re-exports as [A] ([Xcontainers.Sim] is [Xc_sim]);
   [nested] lists every module path that declares values, nested
   signatures included; [own] is the namespace of the library [src]
   belongs to, if any. *)
let value_uses ~libs ~umbrella ~nested ~own src =
  let sub l m =
    match List.assoc_opt l libs with
    | Some ms when List.mem m ms -> Some (Mod (l, [ m ]))
    | _ -> List.assoc_opt (l ^ "." ^ m) umbrella
  in
  let rec descend t names =
    match (t, names) with
    | _, [] -> Some t
    | Lib l, m :: rest -> Option.bind (sub l m) (fun t -> descend t rest)
    | Mod (l, p), m :: rest -> descend (Mod (l, p @ [ m ])) rest
  in
  (* Scopes, innermost first: each is what closes it, the modules
     opened in it and the aliases bound in it. *)
  let head scopes h =
    let in_scope (_, opened, aliases) =
      match List.assoc_opt h aliases with
      | Some t -> Some t
      | None ->
          List.find_map
            (function
              | Lib l -> sub l h
              | Mod (l, p) -> if List.mem (l, p @ [ h ]) nested then Some (Mod (l, p @ [ h ])) else None)
            opened
    in
    match List.find_map in_scope scopes with
    | Some t -> Some t
    | None when List.mem_assoc h libs -> Some (Lib h)
    | None -> (
        match own with
        | Some l when List.mem h (List.assoc l libs) -> Some (Mod (l, [ h ]))
        | _ -> None)
  in
  let resolve scopes = function
    | [] -> None
    | h :: rest -> Option.bind (head scopes h) (fun t -> descend t rest)
  in
  let bind scopes f p =
    match (resolve scopes p, scopes) with
    | Some t, scope :: outer -> f t scope :: outer
    | _ -> scopes
  in
  let close = function [ root ] -> [ root ] | _ :: outer -> outer | [] -> [] in
  let opened scopes v =
    List.concat_map
      (fun (_, opened, _) ->
        List.filter_map (function Mod (l, p) -> Some ((l, p), v) | Lib _ -> None) opened)
      scopes
  in
  (* [r.f] and [(e).f] select a field; a [.] after a number or an
     operator ([2. *. M.v], [x +. M.v]) does not. *)
  let selects = function
    | Word w, Sym '.' -> not (w.[0] >= '0' && w.[0] <= '9')
    | Sym ')', Sym '.' -> true
    | _ -> false
  in
  let rec walk scopes prev acc = function
    | [] -> acc
    | Word ("open" | "include") :: (Sym '!' :: Path (p, _) :: rest | Path (p, _) :: rest) ->
        walk (bind scopes (fun t (c, o, a) -> (c, t :: o, a)) p) (Sym ' ', Word "open") acc rest
    | Word "module" :: Path ([ x ], _) :: Sym '=' :: Path (p, false) :: rest ->
        walk (bind scopes (fun t (c, o, a) -> (c, o, (x, t) :: a)) p) (Sym ' ', Word "module") acc rest
    | Path (p, true) :: Sym '.' :: Sym '(' :: rest ->
        walk ((")", Option.to_list (resolve scopes p), []) :: scopes) (Sym '.', Sym '(') acc rest
    | Path (p, true) :: Sym '.' :: Word v :: rest ->
        (* A label in braces ends at [=], [;] or [}]; [{ M.v with ... }]
           copies the value [M.v]. *)
        let field =
          selects prev
          ||
          match (snd prev, scopes, rest) with
          | (Sym ('{' | ';') | Word "with"), ("}", _, _) :: _, Sym ('=' | ';' | '}') :: _ -> true
          | _ -> false
        in
        let acc =
          match resolve scopes p with
          | Some (Mod (l, p)) when not field -> ((l, p), v) :: acc
          | _ -> acc
        in
        walk scopes (Sym '.', Word v) acc rest
    | Word v :: rest ->
        let acc =
          if selects prev || snd prev = Sym '~' || snd prev = Sym '?' then acc
          else opened scopes v @ acc
        in
        let scopes =
          match v with
          | "begin" | "struct" | "sig" | "object" -> ("end", [], []) :: scopes
          | "end" -> close scopes
          | _ -> scopes
        in
        walk scopes (snd prev, Word v) acc rest
    | Sym ('(' | '[' | '{' as c) :: rest ->
        let closer = match c with '(' -> ")" | '[' -> "]" | _ -> "}" in
        walk ((closer, [], []) :: scopes) (snd prev, Sym c) acc rest
    | Sym ((')' | ']' | '}') as c) :: rest -> walk (close scopes) (snd prev, Sym c) acc rest
    | t :: rest -> walk scopes (snd prev, t) acc rest
  in
  List.sort_uniq compare (walk [ ("", [], []) ] (Sym ' ', Sym ' ') [] (tokens src))

(* Every exported value as [((namespace, path), value)], and the ones a
   caller names. *)
let values =
  lazy
    (let libs = libraries () in
     let names = List.map (fun (_, ns, ms) -> (ns, ms)) libs in
     let umbrella =
       List.concat_map
         (fun (dir, ns, ms) ->
           let file = Filename.concat dir (String.uncapitalize_ascii ns ^ ".ml") in
           if not (Sys.file_exists file) then []
           else
             let rec go = function
               | Word "module" :: Path ([ a ], _) :: Sym '=' :: Path ([ b ], _) :: rest ->
                   let t =
                     if List.mem_assoc b names then [ (ns ^ "." ^ a, Lib b) ]
                     else if List.mem b ms then [ (ns ^ "." ^ a, Mod (ns, [ b ])) ]
                     else []
                   in
                   t @ go rest
               | _ :: rest -> go rest
               | [] -> []
             in
             go (tokens (read file)))
         libs
     in
     let exports =
       List.concat_map
         (fun (dir, ns, ms) ->
           List.concat_map
             (fun m ->
               let mli = Filename.concat dir (String.uncapitalize_ascii m ^ ".mli") in
               if Sys.file_exists mli then
                 List.map (fun (p, v) -> ((ns, m :: p), v)) (declared (read mli))
               else [])
             ms)
         libs
     in
     let nested = List.sort_uniq compare (List.map fst exports) in
     let scan ~own file = value_uses ~libs:names ~umbrella ~nested ~own (read file) in
     let ml_files dir =
       Sys.readdir (Filename.concat root dir) |> Array.to_list |> List.sort compare
       |> List.filter (fun f -> Filename.check_suffix f ".ml")
       |> List.map (fun f -> Filename.concat (Filename.concat root dir) f)
     in
     let outside =
       List.concat_map (scan ~own:None)
         ([ Filename.concat root "bench/main.ml"; Filename.concat root "bin/xc.ml" ]
         @ ml_files "examples" @ ml_files "perf")
     in
     let inside =
       List.concat_map
         (fun (dir, ns, ms) ->
           List.concat_map
             (fun m ->
               let ml = Filename.concat dir (String.uncapitalize_ascii m ^ ".ml") in
               List.filter (fun ((l, p), _) -> l <> ns || List.hd p <> m) (scan ~own:(Some ns) ml))
             ms)
         libs
     in
     let tests = List.concat_map (scan ~own:None) (ml_files "test") in
     (exports, List.sort_uniq compare (outside @ inside), List.sort_uniq compare tests))

(* The exported values no caller uses, kept because a test needs them,
   by module.  [Oracle]: an independent reference a test checks a
   reached path against.  [Hook]: a read-only view of state or of an
   intermediate result a reached path computes, or a finer-grained
   entry into a reached path.  Each entry names the tests that need it. *)
type reason = Oracle | Hook

let test_only =
  [
    ("Xc_abom.Entry_table", [ ("registered", Hook, [ "abom.entry_table bounds" ]) ]);
    ( "Xc_abom.Patcher",
      [ ("unrecognized_sites", Hook, [ "abom.patcher cancellable keeps trapping" ]) ] );
    ( "Xc_abom.Profile",
      [
        ("of_events", Hook, [ "abom.profile empty" ]);
        ("hot_unconverted", Hook, [ "abom.profile hot unconverted" ]);
      ] );
    ( "Xc_apps.Coldstart",
      [ ("spawn_ns", Hook, [ "coldstart spawn ordering"; "coldstart matches boot models" ]) ] );
    ( "Xc_apps.Httpd",
      [
        ( "requests_served",
          Hook,
          [ "integration.httpd serves page"; "integration.httpd many requests" ] );
      ] );
    ("Xc_apps.Kernel_build", [ ("abom_coverage", Hook, [ "apps.eleven coverages" ]) ]);
    ( "Xc_apps.Mongodb",
      [
        ( "ycsb_a",
          Hook,
          [
            "apps.eleven recipes everywhere";
            "apps.eleven no app collapses on XC";
            "apps.extra coverages";
            "apps.extra sweep ordering";
            "apps.extra positive everywhere";
          ] );
      ] );
    ("Xc_apps.Recipe", [ ("cpu_only_ns", Hook, [ "apps.recipe pricing"; "apps.recipe hops charged" ]) ]);
    ("Xc_cpu.Mode", [ ("to_string", Hook, [ "cpu.core modes" ]) ]);
    ( "Xc_hypervisor.Balloon",
      [
        ("guest_usable_mb", Hook, [ "ext.balloon targets" ]);
        ("ballooned_mb", Hook, [ "ext.balloon targets" ]);
        ("pool_committed_mb", Hook, [ "ext.balloon pool reclaim" ]);
      ] );
    ( "Xc_hypervisor.Domain",
      [
        ( "state",
          Hook,
          [ "core.xcontainer boot and run"; "hypervisor.xkernel destroy returns memory" ] );
      ] );
    ( "Xc_hypervisor.Event_channel",
      [
        ("is_bound", Hook, [ "hypervisor.events bind/notify/deliver" ]);
        ( "pending",
          Hook,
          [ "hypervisor.events bind/notify/deliver"; "integration.split_driver grant handshake" ] );
        ("delivered_count", Hook, [ "hypervisor.events bind/notify/deliver" ]);
      ] );
    ( "Xc_hypervisor.Xenstore",
      [
        ( "read",
          Hook,
          [
            "hypervisor.xenstore tree";
            "hypervisor.xenstore device handshake";
            "integration.split_driver grant handshake";
          ] );
        ("directory", Hook, [ "hypervisor.xenstore tree" ]);
        ( "watch",
          Hook,
          [ "hypervisor.xenstore watches"; "integration.split_driver grant handshake" ] );
      ] );
    ("Xc_hypervisor.Xkernel", [ ("dom0", Hook, [ "hypervisor.xkernel dom0 protected" ]) ]);
    ( "Xc_isa.Image",
      [
        ("addr_of_offset", Hook, [ "isa.image addresses" ]);
        ("dirty_pages", Hook, [ "isa.image bounds"; "isa.xelf roundtrip" ]);
      ] );
    ( "Xc_isa.Machine",
      [
        ("rax", Hook, [ "isa.machine stack ops" ]);
        ("step_once", Hook, [ "abom.concurrency" ]);
        ( "syscall_numbers",
          Hook,
          [
            "abom.patcher";
            "abom.offline";
            "abom.concurrency";
            "abom.patcher patched binary is trace-equivalent";
            "isa.machine";
            "isa.loops";
            "isa.signals";
            "isa.xelf offline pipeline equivalence";
            "fuzz.abom";
          ] );
        ( "steps",
          Hook,
          [
            "isa.machine fuel";
            "isa.machine instructions counter";
            "isa.loops dec/jnz semantics";
            "sim.engine domain events";
          ] );
      ] );
    ( "Xc_isa.Xelf",
      [
        ( "serialize",
          Hook,
          [ "isa.xelf roundtrip"; "isa.xelf bad inputs"; "isa.xelf serialize/deserialize identity" ] );
        ( "deserialize",
          Hook,
          [
            "isa.xelf roundtrip";
            "isa.xelf bad inputs";
            "isa.xelf serialize/deserialize identity";
            "fuzz.codec xelf deserialize total on garbage";
          ] );
      ] );
    ("Xc_lb.Hedge", [ ("default_config", Hook, [ "lb.hedge shape validation" ]) ]);
    ( "Xc_lb.Oracle",
      [
        ("mps_mean_ns", Oracle, [ "lb.oracle d=1 is plain M/PS"; "lb.oracle invalid arguments" ]);
        ("effective_utilization", Oracle, [ "lb.oracle cloning maths" ]);
        ("arrival_rate_for", Oracle, [ "lb.oracle d=1 is plain M/PS" ]);
      ] );
    ( "Xc_lb.Policy",
      [
        ( "pick",
          Hook,
          [
            "lb.policy jsq observes queue";
            "lb.policy least-loaded observes load";
            "lb.policy po2c charges at most two probes per pick";
            "net.lb round robin";
          ] );
        ("picks", Hook, [ "lb.policy po2c charges at most two probes per pick" ]);
        ( "probes",
          Hook,
          [
            "lb.policy po2c charges at most two probes per pick";
            "lb.policy least-loaded and jsq sets match a stable sort";
          ] );
      ] );
    ( "Xc_net.Link",
      [ ("create", Hook, [ "net.link math" ]); ("serialize_ns", Hook, [ "net.link math" ]) ] );
    ( "Xc_net.Netpath",
      [
        ( "hop_cost_ns",
          Hook,
          [
            "net.path hop ordering";
            "net.path additive";
            "integration.split_driver completion order";
          ] );
        ("packets_for", Hook, [ "net.link packets_for" ]);
      ] );
    ( "Xc_obs.Critical_path",
      [
        ("self_label", Hook, [ "causal-critical-path hand-built chains"; "causal-critical-path critical path telescopes" ]);
        ("nested_label", Hook, [ "causal-critical-path hand-built chains"; "causal-critical-path critical path telescopes" ]);
        ("share", Hook, [ "causal-critical-path hand-built chains" ]);
      ] );
    ( "Xc_os.Socket",
      [
        ("state", Hook, [ "os.socket lifecycle" ]);
        ("buffer_capacity", Hook, [ "os.socket flow control" ]);
      ] );
    ( "Xc_os.Syscall_nr",
      [
        ("number", Hook, [ "os.syscall_nr authentic numbers"; "os.syscall_nr roundtrip" ]);
        ("all", Hook, [ "os.syscall_nr roundtrip" ]);
      ] );
    ( "Xc_platforms.Ablation",
      [ ("service_delta_ns", Hook, [ "ext.ablation additivity"; "ext.ablation coverage matters" ]) ]
    );
    ( "Xc_platforms.Syscall_path",
      [
        ( "entry_ns",
          Hook,
          [
            "platforms.syscall_path entry ordering";
            "platforms.syscall_path coverage interpolation";
            "platforms.syscall_path meltdown effects";
            "mem.kpti transitions";
          ] );
        ("unpatched_site_ns", Hook, [ "platforms.syscall_path coverage interpolation" ]);
      ] );
    ( "Xc_sim.Heap",
      [
        ("length", Hook, [ "sim.heap basic"; "sim.heap grow"; "sim.heap capacity-1 grow/drain" ]);
        ("to_sorted_list", Oracle, [ "sim.heap pop order is sorted" ]);
      ] );
    ( "Xc_sim.Histogram",
      [
        ( "equal",
          Oracle,
          [
            "metrics Histogram.merge is associative";
            "metrics Histogram.merge is commutative";
            "metrics Metrics capture/inject invariant under partitioning";
            "metrics Parallel.run telemetry identical at jobs 1 and 2";
          ] );
      ] );
    ( "Xc_sim.Metrics",
      [
        ("default_retention", Hook, [ "sim.metrics counters"; "metrics" ]);
        ( "take_snapshot",
          Hook,
          [
            "metrics emitters, snapshot, sorted keys";
            "metrics capture isolates, inject merges";
            "metrics disabled emitters are no-ops";
            "metrics Parallel.run telemetry identical at jobs 1 and 2";
          ] );
        ("rule_to_string", Hook, [ "causal-alerts rule algebra" ]);
      ] );
    ("Xc_sim.Parallel.Shard", [ ("count", Hook, [ "sim.parallel.sharding shard counts" ]) ]);
    ( "Xc_trace.Diff",
      [
        ("delta", Hook, [ "trace.diff" ]);
        ("diff", Hook, [ "trace.diff" ]);
        ("names_in", Hook, [ "trace.diff per-name rows" ]);
        ("dominant", Hook, [ "trace.diff aggregation and ranking"; "trace.diff figure 4 shape" ]);
        ("dominant_share", Hook, [ "trace.diff" ]);
        ("diff_tails", Hook, [ "tails.drivers fig9 p99 gap is the entry path" ]);
        ("dominant_tail", Hook, [ "tails.drivers fig9 p99 gap is the entry path" ]);
        ("dominant_tail_share", Hook, [ "tails.drivers fig9 p99 gap is the entry path" ]);
      ] );
    ( "Xc_trace.Export",
      [
        ("to_chrome", Hook, [ "trace.export chrome round trip"; "trace.export span value round trip" ]);
        ("to_csv", Hook, [ "trace.export"; "trace.recorder" ]);
        ("events_of_string", Oracle, [ "trace.export"; "trace.recorder" ]);
        ("to_tails_csv", Hook, [ "tails.csv round-trip"; "tails.csv truncation detected, no exceptions" ]);
        ( "tails_of_string",
          Oracle,
          [ "tails.csv round-trip"; "tails.csv truncation detected, no exceptions"; "tails.csv tails_of_string never raises" ] );
        ("tails_of_file", Oracle, [ "tails.csv round-trip"; "tails.csv truncation detected, no exceptions" ]);
      ] );
    ( "Xc_trace.Profile",
      [
        ("sweep", Hook, [ "trace.profile fold matches O(n^2) reference" ]);
        ("fold", Hook, [ "trace.profile"; "trace.profile fold matches O(n^2) reference" ]);
        ( "total_self_ns",
          Hook,
          [
            "tails.attribution hand-built forest partition";
            "tails.attribution attribute matches O(n^2) reference + partition";
            "tails.drivers closed-loop bundles recover the recipe";
          ] );
      ] );
    ( "Xcontainers.Boot",
      [ ("xl_toolstack_estimate_ns", Oracle, [ "core.boot_bottom_up xenstore estimate matches" ]) ]
    );
    ("Xcontainers.Docker_wrapper", [ ("registry", Hook, [ "core.docker_wrapper registry/pull" ]) ]);
    ( "Xcontainers.Security",
      [
        ( "profile_of",
          Hook,
          [
            "ext.security tcb ranking";
            "ext.security exposure";
            "ext.security meltdown column";
            "hypervisor.xkernel TCB comparison";
            "sim.engine domain events";
          ] );
      ] );
    ( "Xcontainers.Xcontainer",
      [
        ("domain", Hook, [ "core.xcontainer boot and run" ]);
        ("libos", Hook, [ "core.xcontainer boot and run" ]);
        ("profile", Hook, [ "core.xcontainer boot and run" ]);
      ] );
  ]

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

let show ((l, p), v) = String.concat "." ((l :: p) @ [ v ])

(* The values the allow-list names, as "Ns.Module.value". *)
let listed () =
  List.concat_map (fun (m, vs) -> List.map (fun (v, _, _) -> m ^ "." ^ v) vs) test_only

let test_every_value_used () =
  let exports, used, _ = Lazy.force values in
  let listed = listed () in
  Alcotest.(check (list string))
    "exported values no caller uses and the test-only list does not name" []
    (List.filter_map
       (fun x ->
         let v = show x in
         if List.mem x used || List.mem v listed then None else Some v)
       exports)

let test_test_only_current () =
  let exports, used, tests = Lazy.force values in
  let find v = List.find_opt (fun x -> show x = v) exports in
  let stale, reached, untested =
    List.fold_left
      (fun (stale, reached, untested) v ->
        match find v with
        | None -> (v :: stale, reached, untested)
        | Some x when List.mem x used -> (stale, v :: reached, untested)
        | Some x when not (List.mem x tests) -> (stale, reached, v :: untested)
        | Some _ -> (stale, reached, untested))
      ([], [], []) (listed ())
  in
  Alcotest.(check (list string)) "test-only entries that no longer exist" [] (List.rev stale);
  Alcotest.(check (list string)) "test-only entries a caller now uses" [] (List.rev reached);
  Alcotest.(check (list string)) "test-only entries no test uses" [] (List.rev untested)

(* ---------------- One pricing path ---------------- *)

(* A closed-loop or cluster point is priced in Xc_suite.Driver alone:
   no other lib/suite file, nor the bench or xc, names the pricing
   entry points Driver wraps. *)
let test_one_pricing_path () =
  let suite_files =
    Sys.readdir (Filename.concat root "lib/suite")
    |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".ml" && f <> "driver.ml")
    |> List.map (Filename.concat "lib/suite")
  in
  let named file =
    let rec go = function
      | Word (("config_of_platform" | "server_for_public") as v) :: rest -> v :: go rest
      | Path (p, true) :: Sym '.' :: Word "default_config" :: rest
        when List.mem (List.nth p (List.length p - 1)) [ "Closed_loop"; "CL" ] ->
          (String.concat "." p ^ ".default_config") :: go rest
      | _ :: rest -> go rest
      | [] -> []
    in
    List.map (fun v -> file ^ ": " ^ v) (go (tokens (read (Filename.concat root file))))
  in
  Alcotest.(check (list string))
    "pricing named outside Xc_suite.Driver" []
    (List.concat_map named ([ "bench/main.ml"; "bin/xc.ml" ] @ suite_files))

(* ---------------- One dispatch loop ---------------- *)

(* Every event loop in lib/ is [Xc_platforms.Dispatch.run]: no other
   lib/ module pops a heap event, through [Heap] or an alias of it. *)
let test_one_dispatch_loop () =
  let last p = List.nth p (List.length p - 1) in
  let pops file =
    let toks = tokens (read file) in
    let rec aliases = function
      | Word "module" :: Path ([ m ], false) :: Sym '=' :: Path (p, false) :: rest
        when last p = "Heap" ->
          m :: aliases rest
      | _ :: rest -> aliases rest
      | [] -> []
    in
    let heaps = "Heap" :: aliases toks in
    let rec go = function
      | Path (p, true) :: Sym '.' :: Word "drop" :: rest when List.mem (last p) heaps ->
          (file ^ ": " ^ String.concat "." p ^ ".drop") :: go rest
      | _ :: rest -> go rest
      | [] -> []
    in
    go toks
  in
  Alcotest.(check (list string))
    "heap events popped outside Xc_platforms.Dispatch" []
    (List.concat_map
       (fun (dir, _, ms) ->
         List.concat_map
           (fun m ->
             if m = "Dispatch" then []
             else pops (Filename.concat dir (String.uncapitalize_ascii m ^ ".ml")))
           ms)
       (libraries ()))

(* ---------------- One capture path ---------------- *)

(* Tracing and telemetry are switched on, captured and written by
   Xc_suite.Run alone: no file of the bench or xc names a switch or a
   capture, directly or through a module alias. *)
let capture_sites ~file src =
  let last p = List.nth p (List.length p - 1) in
  let banned =
    [
      ("Trace", [ "enable"; "disable"; "capture" ]);
      ("Metrics", [ "enable"; "disable"; "capture" ]);
      ("Causal", [ "with_tracing" ]);
    ]
  in
  let toks = tokens src in
  (* [module M = Xc_sim.Metrics], [let module T = Trace], an alias of
     an alias: each name maps to the module it stands for. *)
  let rec aliases acc = function
    | Word "module" :: Path ([ m ], false) :: Sym '=' :: Path (p, false) :: rest ->
        let target = Option.value (List.assoc_opt (last p) acc) ~default:(last p) in
        aliases ((m, target) :: acc) rest
    | _ :: rest -> aliases acc rest
    | [] -> acc
  in
  let modules = aliases [] toks in
  let rec go = function
    | Path (p, true) :: Sym '.' :: Word v :: rest -> (
        let m = Option.value (List.assoc_opt (last p) modules) ~default:(last p) in
        match List.assoc_opt m banned with
        | Some vs when List.mem v vs ->
            (file ^ ": " ^ String.concat "." p ^ "." ^ v) :: go rest
        | _ -> go rest)
    | _ :: rest -> go rest
    | [] -> []
  in
  go toks

let test_one_capture_path () =
  Alcotest.(check (list string))
    "switches seen through aliases"
    [ "f: M.enable"; "f: T.capture"; "f: Xc_obs.Causal.with_tracing" ]
    (capture_sites ~file:"f"
       "let module M = Xc_sim.Metrics in M.enable ();\n\
        module T = Xc_trace.Trace\nlet x = T.capture f\n\
        let y = Xc_obs.Causal.with_tracing g (* Trace.enable *)\n\
        let z = T.enabled () && M.on ()");
  let files dir =
    Sys.readdir (Filename.concat root dir)
    |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (Filename.concat dir)
  in
  Alcotest.(check (list string))
    "tracing or telemetry switched or captured outside Xc_suite.Run" []
    (List.concat_map
       (fun file -> capture_sites ~file (read (Filename.concat root file)))
       (files "bench" @ files "bin"))

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
  case "polymorphic variant" ~own:"Xc_os" "let v = `Kernel" [];
  (* Values: [Kernel.spawn] and a nested [Parallel.Shard.make]. *)
  let libs = [ ("Xc_os", [ "Kernel" ]); ("Xc_sim", [ "Parallel" ]) ] in
  let nested = [ ("Xc_os", [ "Kernel" ]); ("Xc_sim", [ "Parallel" ]); ("Xc_sim", [ "Parallel"; "Shard" ]) ] in
  let spawn = [ (("Xc_os", [ "Kernel" ]), "spawn") ] in
  let make = [ (("Xc_sim", [ "Parallel"; "Shard" ]), "make") ] in
  (* Bare words under an open name every value of the opened module;
     the gate keeps the exported ones. *)
  let value name ?own src expected =
    Alcotest.(check (list (pair (pair string (list string)) string)))
      name expected
      (List.filter (fun u -> List.mem u (spawn @ make)) (value_uses ~libs ~umbrella:[] ~nested ~own src))
  in
  value "qualified value" "let p = Xc_os.Kernel.spawn k" spawn;
  value "nested signature" "let s = Xc_sim.Parallel.Shard.make x" make;
  value "alias" "module K = Xc_os.Kernel\nlet p = K.spawn k" spawn;
  value "sibling" ~own:"Xc_os" "let p = Kernel.spawn k" spawn;
  value "open library" "open Xc_os\nlet p = Kernel.spawn k" spawn;
  value "open module" "open Xc_os.Kernel\nlet p = spawn k" spawn;
  value "let open" "let p = let open Xc_os.Kernel in spawn k" spawn;
  value "local open" "let p = Xc_os.Kernel.(spawn k)" spawn;
  value "local open ends" "let p = Xc_os.Kernel.(k) and q = spawn k" [];
  value "include" "include Xc_os.Kernel\nlet p = spawn k" spawn;
  value "open nested" "module P = Xc_sim.Parallel\nopen P.Shard\nlet s = make x" make;
  value "constructor" "let c = Xc_os.Kernel.Spawn" [];
  value "record field" "let n = r.Xc_os.Kernel.spawn" [];
  value "record label" "let r = { Xc_os.Kernel.spawn = 1; x = 2 }" [];
  value "record copy" "let r = { Xc_os.Kernel.spawn with x = 2 }" spawn;
  value "float operand" "let t = 2. *. Xc_os.Kernel.spawn" spawn;
  value "labelled argument" "open Xc_os.Kernel\nlet p = f ~spawn:1" [];
  value "name in a comment" "(* Xc_os.Kernel.spawn *) let x = 1" [];
  value "name in a string" "let s = \"Xc_os.Kernel.spawn\"" [];
  Alcotest.(check (list (pair (list string) string)))
    "declared values, nested signatures apart, module types skipped"
    [ ([], "run"); ([ "Shard" ], "make"); ([], "all") ]
    (declared
       "val run : t -> unit\nmodule Shard : sig val make : t -> unit end\n\
        module type S = sig val hidden : int end\nval all : t list")

let suites =
  [
    ( "core.inventory",
      [
        Alcotest.test_case "covers bench targets" `Quick test_inventory_covers_bench;
        Alcotest.test_case "registry agrees with bench" `Quick
          test_registry_agrees_with_bench;
        Alcotest.test_case "structure" `Quick test_inventory_structure;
        Alcotest.test_case "every lib module reached" `Quick test_every_module_reached;
        Alcotest.test_case "inventory modules reached" `Quick
          test_inventory_modules_reached;
        Alcotest.test_case "reachability scanner" `Quick test_scanner;
        Alcotest.test_case "every lib value used" `Quick test_every_value_used;
        Alcotest.test_case "test-only list current" `Quick test_test_only_current;
        Alcotest.test_case "one pricing path" `Quick test_one_pricing_path;
        Alcotest.test_case "one dispatch loop" `Quick test_one_dispatch_loop;
        Alcotest.test_case "one capture path" `Quick test_one_capture_path;
      ] );
  ]
