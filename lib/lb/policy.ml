module Prng = Xc_sim.Prng

type kind = Round_robin | Least_loaded | Power_of_two | Jsq

let all_kinds = [ Round_robin; Least_loaded; Power_of_two; Jsq ]

let kind_to_string = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Power_of_two -> "po2c"
  | Jsq -> "jsq"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "round-robin" | "rr" -> Ok Round_robin
  | "least-loaded" | "least" -> Ok Least_loaded
  | "po2c" | "power-of-two" -> Ok Power_of_two
  | "jsq" -> Ok Jsq
  | _ ->
      Error
        (Printf.sprintf "unknown policy %S (expected %s)" s
           (String.concat ", " (List.map kind_to_string all_kinds)))

type hedge = { kind : kind; clones : int }

type t = {
  kind : kind;
  n : int;
  inflight : int array;
  queued : int array;
  mutable cursor : int;
  rng : Prng.t;
  mutable picks : int;
  mutable probes : int;
}

let create ?(seed = 0) ~backends kind =
  if backends <= 0 then invalid_arg "Xc_lb.Policy: no backends";
  {
    kind;
    n = backends;
    inflight = Array.make backends 0;
    queued = Array.make backends 0;
    cursor = 0;
    rng = Prng.create seed;
    picks = 0;
    probes = 0;
  }

let kind t = t.kind
let admit t b = t.inflight.(b) <- t.inflight.(b) + 1
let complete t b = t.inflight.(b) <- t.inflight.(b) - 1
let enqueue t b = t.queued.(b) <- t.queued.(b) + 1
let dequeue t b = t.queued.(b) <- t.queued.(b) - 1
let picks t = t.picks
let probes t = t.probes

(* Lowest index among the minima, scanning every backend (one probe
   each): the deterministic tie-break keeps sharded runs identical. *)
let argmin t load =
  let best = ref 0 in
  for i = 1 to t.n - 1 do
    t.probes <- t.probes + 1;
    if load.(i) < load.(!best) then best := i
  done;
  t.probes <- t.probes + 1;
  !best

let pick_one t =
  match t.kind with
  | Round_robin ->
      let b = t.cursor mod t.n in
      t.cursor <- t.cursor + 1;
      b
  | Least_loaded -> argmin t t.inflight
  | Jsq -> argmin t t.queued
  | Power_of_two ->
      if t.n = 1 then begin
        t.probes <- t.probes + 1;
        0
      end
      else begin
        let i = Prng.int t.rng t.n in
        let j =
          let j = Prng.int t.rng (t.n - 1) in
          if j >= i then j + 1 else j
        in
        t.probes <- t.probes + 2;
        if t.inflight.(j) < t.inflight.(i) then j else i
      end

let pick t =
  t.picks <- t.picks + 1;
  pick_one t

(* The [k] smallest loads, ties to the lower index: what a stable sort
   by load would put first, in one O(n·k) pass.  A k-slot buffer of
   indices stays sorted by (load, index); backend [i] enters while it
   is not full, or below the last kept load, and shifts only past
   strictly larger loads, so an equal load keeps its lower index
   ahead. *)
let k_least t (load : int array) k =
  let best = Array.make k 0 and len = ref 0 in
  for i = 0 to t.n - 1 do
    let l = load.(i) in
    if !len < k || l < load.(best.(k - 1)) then begin
      let j = ref (if !len < k then !len else k - 1) in
      while !j > 0 && load.(best.(!j - 1)) > l do
        best.(!j) <- best.(!j - 1);
        decr j
      done;
      best.(!j) <- i;
      if !len < k then incr len
    end
  done;
  t.probes <- t.probes + t.n;
  let set = ref [] in
  for j = k - 1 downto 0 do
    set := best.(j) :: !set
  done;
  !set

let pick_set t ~clones =
  if clones < 1 || clones > t.n then
    invalid_arg "Xc_lb.Policy.pick_set: clones must be in [1, backends]";
  t.picks <- t.picks + 1;
  if clones = 1 then [ pick_one t ]
  else
    match t.kind with
    | Round_robin ->
        let first = t.cursor mod t.n in
        t.cursor <- t.cursor + clones;
        List.init clones (fun i -> (first + i) mod t.n)
    | Least_loaded -> k_least t t.inflight clones
    | Jsq -> k_least t t.queued clones
    | Power_of_two ->
        (* Two probes, winner first: a d=2 clone set is exactly the two
           sampled backends.  Extra clones pad with the winner's cyclic
           successors (no further probes charged). *)
        let i = if t.n = 1 then 0 else Prng.int t.rng t.n in
        let j =
          if t.n = 1 then 0
          else
            let j = Prng.int t.rng (t.n - 1) in
            if j >= i then j + 1 else j
        in
        t.probes <- t.probes + Stdlib.min 2 t.n;
        let w, l = if t.inflight.(j) < t.inflight.(i) then (j, i) else (i, j) in
        let rec fill acc next remaining =
          if remaining = 0 then List.rev acc
          else
            let next = next mod t.n in
            if List.mem next acc then fill acc (next + 1) remaining
            else fill (next :: acc) (next + 1) (remaining - 1)
        in
        (* [fill] reverses its accumulator, so this yields [w; l; ...]. *)
        fill [ l; w ] (w + 1) (clones - 2)
