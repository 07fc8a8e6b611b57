(** Rows flowing through plan operators: the values position by position,
    under a schema that the whole set of rows shares; see row.mli. *)

type t = Nrc.Value.t array

let empty : t = [||]

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

let get names (row : t) col =
  match slot names col with
  | Some i -> row.(i)
  | None -> invalid_arg (Printf.sprintf "Row.get: no column %S" col)

let column_header = 8
let column_bytes v = column_header + Nrc.Value.byte_size v
let byte_size (row : t) = Array.fold_left (fun acc v -> acc + column_bytes v) 0 row
let bag_column items = column_header + Nrc.Value.bag_bytes items

(* each column's header becomes a field's *)
let tuple_of_columns n =
  column_header + Nrc.Value.tuple_bytes 0 + (n * (Nrc.Value.field_bytes 0 - column_header))

let pp names ppf (row : t) =
  Fmt.pf ppf "@[<h>[%a]@]"
    (Fmt.array ~sep:(Fmt.any "; ")
       (fun ppf (c, v) -> Fmt.pf ppf "%s=%a" c Nrc.Value.pp v))
    (Array.map2 (fun c v -> (c, v)) names row)
