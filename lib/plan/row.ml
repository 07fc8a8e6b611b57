(** Rows flowing through plan operators: a shared schema of column names and
    the values position by position; see row.mli. *)

type t = { names : string array; vals : Nrc.Value.t array }

let make names vals =
  if Array.length names <> Array.length vals then
    invalid_arg "Row.make: names and values differ in length";
  { names; vals }

let empty = { names = [||]; vals = [||] }

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

let same_schema a b =
  a == b
  || (Array.length a = Array.length b && Array.for_all2 String.equal a b)

let by_schema derive =
  let last = ref None in
  fun row ->
    match !last with
    | Some (names, d) when names == row.names -> d
    | Some (names, d) when same_schema names row.names ->
      last := Some (row.names, d);
      d
    | _ ->
      let d = derive row.names in
      last := Some (row.names, d);
      d

let column_bytes v = 8 + Nrc.Value.byte_size v
let byte_size row = Array.fold_left (fun acc v -> acc + column_bytes v) 0 row.vals

let pp ppf row =
  Fmt.pf ppf "@[<h>[%a]@]"
    (Fmt.array ~sep:(Fmt.any "; ")
       (fun ppf (c, v) -> Fmt.pf ppf "%s=%a" c Nrc.Value.pp v))
    (Array.map2 (fun c v -> (c, v)) row.names row.vals)
