(** Hashes to positions, open-addressed; see key_table.mli. *)

(* slot [i] is [slots.(2i)], the hash, and [slots.(2i + 1)], the position
   or -1 when free; probing is linear from [home hash mask] *)
type t = { mutable slots : int array; mutable mask : int; mutable count : int }

let initial_mask = 15
let create () = { slots = Array.make (2 * (initial_mask + 1)) (-1); mask = initial_mask; count = 0 }
let length t = t.count

(* more than 4 times the slots [keys] keys grow a table to: at most
   [4 * keys], and at least the initial 16 *)
let far_larger t keys = t.mask + 1 > 4 * max (initial_mask + 1) (4 * keys)

let reset t ~keys =
  if far_larger t keys then begin
    t.slots <- Array.make (2 * (initial_mask + 1)) (-1);
    t.mask <- initial_mask
  end
  else if t.count > 0 then Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.count <- 0

(* The first slot probed for [hash], high bits folded in: the rows a
   shuffle delivers to one partition share [hash mod partitions]. *)
let home hash mask = (hash lxor (hash lsr 7) lxor (hash lsr 17)) land mask

(* the slot holding an equal key, or the free slot where it goes, encoded
   as [-1 - i] *)
let rec probe slots mask hash (equal : int -> bool) i =
  let p = slots.((2 * i) + 1) in
  if p < 0 then -1 - i
  else if slots.(2 * i) = hash && equal p then i
  else probe slots mask hash equal ((i + 1) land mask)

let find t hash equal =
  match probe t.slots t.mask hash equal (home hash t.mask) with
  | i when i >= 0 -> t.slots.((2 * i) + 1)
  | _ -> -1

(* [hash] and [p] into the first free slot from [i]; no position is
   compared *)
let rec place slots mask hash p i =
  if slots.((2 * i) + 1) < 0 then begin
    slots.(2 * i) <- hash;
    slots.((2 * i) + 1) <- p
  end
  else place slots mask hash p ((i + 1) land mask)

let grow t =
  let old = t.slots and mask = (2 * t.mask) + 1 in
  let slots = Array.make (2 * (mask + 1)) (-1) in
  for i = 0 to t.mask do
    let p = old.((2 * i) + 1) in
    if p >= 0 then place slots mask old.(2 * i) p (home old.(2 * i) mask)
  done;
  t.slots <- slots;
  t.mask <- mask

let enter t i hash p =
  t.slots.(2 * i) <- hash;
  t.slots.((2 * i) + 1) <- p;
  t.count <- t.count + 1;
  if 2 * t.count > t.mask then grow t

let find_or_add t hash equal p =
  match probe t.slots t.mask hash equal (home hash t.mask) with
  | i when i >= 0 -> t.slots.((2 * i) + 1)
  | free ->
    enter t (-1 - free) hash p;
    -1

let push t hash equal p =
  match probe t.slots t.mask hash equal (home hash t.mask) with
  | i when i >= 0 ->
    let before = t.slots.((2 * i) + 1) in
    t.slots.((2 * i) + 1) <- p;
    before
  | free ->
    enter t (-1 - free) hash p;
    -1
