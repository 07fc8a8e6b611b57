(** Rows flowing through plan operators: a shared schema of column names and
    the values position by position; see row.mli. *)

type t = { names : string array; vals : Nrc.Value.t array }

let make names vals =
  if Array.length names <> Array.length vals then
    invalid_arg "Row.make: names and values differ in length";
  { names; vals }

let empty = { names = [||]; vals = [||] }

(* OCaml 5's [Array.make n x] with [n] over 256 words and [x] still in the
   minor heap first empties every domain's minor heap, all domains stopped
   ([caml_make_vect]). [Array.of_list], [Array.map] and [Array.init] seed
   their array with its first element, which a kernel has just built, so
   every partition of more than 256 fresh rows would force a collection.
   These seed it with a static [filler] instead and fill it afterwards. *)
let array_init filler n f =
  let a = Array.make n filler in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (f i)
  done;
  a

let array_of_list filler l =
  let a = Array.make (List.length l) filler in
  let rec fill i = function
    | [] -> ()
    | x :: rest ->
      Array.unsafe_set a i x;
      fill (i + 1) rest
  in
  fill 0 l;
  a

let slot names col =
  let n = Array.length names in
  let rec go i =
    if i = n then None else if String.equal names.(i) col then Some i else go (i + 1)
  in
  go 0

let get row col =
  match slot row.names col with
  | Some i -> row.vals.(i)
  | None -> invalid_arg (Printf.sprintf "Row.get: no column %S" col)

(* top-level, so that a comparison allocates no closure *)
let rec same_names a b i = i < 0 || (String.equal a.(i) b.(i) && same_names a b (i - 1))

let same_schema a b =
  a == b || (Array.length a = Array.length b && same_names a b (Array.length a - 1))

(* rows a shuffle gathers switch between equal, unshared schemas every few
   rows, so a switch allocates nothing *)
let by_schema derive =
  let last = ref None and last_names = ref [||] in
  fun row ->
    match !last with
    | Some d when !last_names == row.names -> d
    | Some d when same_schema !last_names row.names ->
      last_names := row.names;
      d
    | _ ->
      let d = derive row.names in
      last := Some d;
      last_names := row.names;
      d

let column_bytes v = 8 + Nrc.Value.byte_size v
let byte_size row = Array.fold_left (fun acc v -> acc + column_bytes v) 0 row.vals

let pp ppf row =
  Fmt.pf ppf "@[<h>[%a]@]"
    (Fmt.array ~sep:(Fmt.any "; ")
       (fun ppf (c, v) -> Fmt.pf ppf "%s=%a" c Nrc.Value.pp v))
    (Array.map2 (fun c v -> (c, v)) row.names row.vals)
