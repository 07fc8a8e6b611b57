(** Rows flowing through plan operators: flat records mapping column names to
    values. Columns typically hold whole generator variables (tuples), added
    index columns (ints), or nested bags produced by {!Op.NestBag}. *)

type t = (string * Nrc.Value.t) list

let empty : t = []

let get (row : t) col : Nrc.Value.t =
  match List.assoc_opt col row with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Row.get: no column %S" col)

let add col v (row : t) : t = (col, v) :: List.remove_assoc col row
let columns (row : t) = List.map fst row

let column_bytes v = 8 + Nrc.Value.byte_size v
let byte_size (row : t) = List.fold_left (fun acc (_, v) -> acc + column_bytes v) 0 row

(** Restrict to the given columns, in that order; missing columns are Null
    (used to align union branches and to nullify outer-join sides). *)
let restrict cols (row : t) : t =
  List.map
    (fun c ->
      match List.assoc_opt c row with
      | Some v -> (c, v)
      | None -> (c, Nrc.Value.Null))
    cols

let nulls cols : t = List.map (fun c -> (c, Nrc.Value.Null)) cols

let pp ppf (row : t) =
  Fmt.pf ppf "@[<h>[%a]@]"
    (Fmt.list ~sep:(Fmt.any "; ")
       (fun ppf (c, v) -> Fmt.pf ppf "%s=%a" c Nrc.Value.pp v))
    row
