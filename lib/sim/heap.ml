(* Dual-array layout: the keys live in a flat [float array] (unboxed
   float storage, no per-entry record allocation), the FIFO tie-break
   sequence numbers in an [int array], and the payloads in an
   ['a array].  The value array stays physically empty until the first
   push materialises it with a real element as filler, so no [Obj.magic]
   dummy is ever needed.  Sifting moves a hole instead of swapping:
   one write per level per array. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable values : 'a array;  (* length 0 until the first push *)
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 64) () =
  let cap = Stdlib.max 1 capacity in
  {
    keys = Array.make cap 0.;
    seqs = Array.make cap 0;
    values = [||];
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* [v] doubles as the filler for fresh slots. *)
let ensure_room t v =
  if Array.length t.values = 0 then t.values <- Array.make (Array.length t.keys) v
  else if t.size = Array.length t.keys then begin
    let cap = 2 * t.size in
    let keys = Array.make cap 0. in
    Array.blit t.keys 0 keys 0 t.size;
    t.keys <- keys;
    let seqs = Array.make cap 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    t.seqs <- seqs;
    let values = Array.make cap v in
    Array.blit t.values 0 values 0 t.size;
    t.values <- values
  end

(* Move the hole at [i] up while the pushed (key, seq) sorts before the
   parent, then drop the element in. *)
let sift_up t i key seq v =
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = t.keys.(parent) in
    if key < pk || (key = pk && seq < t.seqs.(parent)) then begin
      t.keys.(!i) <- pk;
      t.seqs.(!i) <- t.seqs.(parent);
      t.values.(!i) <- t.values.(parent);
      i := parent
    end
    else moving := false
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- v

(* Move the hole at the root down along the smaller-child path until
   the element at index [j] (past the live prefix) fits, then move it
   in.  It is read by index: a [float] key argument would be boxed. *)
let sift_down t j =
  let key = t.keys.(j) and seq = t.seqs.(j) and v = t.values.(j) in
  let n = t.size in
  let i = ref 0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (t.keys.(r) < t.keys.(l)
             || (t.keys.(r) = t.keys.(l) && t.seqs.(r) < t.seqs.(l)))
        then r
        else l
      in
      if t.keys.(c) < key || (t.keys.(c) = key && t.seqs.(c) < seq) then begin
        t.keys.(!i) <- t.keys.(c);
        t.seqs.(!i) <- t.seqs.(c);
        t.values.(!i) <- t.values.(c);
        i := c
      end
      else moving := false
    end
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- v

let push t key value =
  ensure_room t value;
  let i = t.size in
  t.size <- i + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  sift_up t i key seq value

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.values.(0)

let drop t =
  if t.size = 0 then invalid_arg "Heap.drop: empty heap";
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down t n

let keys t = t.keys

let to_sorted_list t =
  let copy =
    {
      keys = Array.copy t.keys;
      seqs = Array.copy t.seqs;
      values = Array.copy t.values;
      size = t.size;
      next_seq = t.next_seq;
    }
  in
  let rec drain acc =
    if copy.size = 0 then List.rev acc
    else begin
      let kv = (copy.keys.(0), top copy) in
      drop copy;
      drain (kv :: acc)
    end
  in
  drain []
