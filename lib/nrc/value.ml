(** Runtime values of the nested data model.

    Bags are represented as lists with explicit duplicates (multiplicity is
    positional). [Null] only ever appears as the product of outer operators
    in the plan language; NRC source programs cannot construct it.

    Labels are the runtime counterpart of the shredding extension: a label is
    created by a [NewLabel] site and captures a tuple of flat values. Two
    labels are equal iff they come from the same site and capture equal
    values, which is exactly the semantics needed for label-keyed joins. *)

type t =
  | Null
  | Int of int
  | Real of float
  | Str of string
  | Bool of bool
  | Date of int (* days since 1970-01-01 *)
  | Label of label
  | Tuple of (string * t) list
  | Bag of t list

and label = { site : int; args : t list }

let is_null = function Null -> true | _ -> false
let of_bool b = if b then Bool true else Bool false

(* ------------------------------------------------------------------ *)
(* Total order, equality, hashing *)

let tag_rank = function
  | Null -> 0 | Int _ -> 1 | Real _ -> 2 | Str _ -> 3 | Bool _ -> 4
  | Date _ -> 5 | Label _ -> 6 | Tuple _ -> 7 | Bag _ -> 8

let rec compare (a : t) (b : t) =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Stdlib.compare x y
  | Real x, Real y -> Stdlib.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | Date x, Date y -> Stdlib.compare x y
  | Label x, Label y ->
    let c = Stdlib.compare x.site y.site in
    if c <> 0 then c else compare_list x.args y.args
  | Tuple x, Tuple y ->
    compare_fields x y
  | Bag x, Bag y -> compare_list x y
  | _, _ -> Stdlib.compare (tag_rank a) (tag_rank b)

and compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs' ys'

and compare_fields xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (n1, x) :: xs', (n2, y) :: ys' ->
    let c = String.compare n1 n2 in
    if c <> 0 then c
    else
      let c = compare x y in
      if c <> 0 then c else compare_fields xs' ys'

let equal a b = compare a b = 0

let rec hash (v : t) =
  match v with
  | Null -> 17
  | Int x -> Hashtbl.hash x
  | Real x -> Hashtbl.hash x
  | Str x -> Hashtbl.hash x
  | Bool x -> Hashtbl.hash x
  | Date x -> 31 * Hashtbl.hash x + 5
  | Label { site; args } ->
    List.fold_left (fun acc a -> (acc * 31) + hash a) (site + 193) args
  | Tuple fields ->
    List.fold_left
      (fun acc (n, x) -> (acc * 31) + Hashtbl.hash n + hash x)
      7 fields
  | Bag items -> List.fold_left (fun acc x -> acc + hash x) 977 items

(* ------------------------------------------------------------------ *)
(* Accessors *)

(* a monomorphic lookup: field names compare as strings, not through
   polymorphic [compare]; top-level, so a lookup allocates no closure *)
let rec find_field name = function
  | (n, x) :: _ when String.equal n name -> x
  | _ :: rest -> find_field name rest
  | [] -> invalid_arg (Printf.sprintf "Value.field: no attribute %S in tuple" name)

let field v name =
  match v with
  | Tuple fields -> find_field name fields
  | Null -> Null (* null propagation through projections of outer tuples *)
  | _ -> invalid_arg (Printf.sprintf "Value.field %S: not a tuple" name)

let bag_items = function
  | Bag items -> items
  | Null -> [] (* outer operators treat null as the empty bag *)
  | _ -> invalid_arg "Value.bag_items: not a bag"

let as_real = function Real r -> r | Int i -> float_of_int i | _ -> invalid_arg "Value.as_real"
let as_bool = function Bool b -> b | _ -> invalid_arg "Value.as_bool"
let as_string = function Str s -> s | _ -> invalid_arg "Value.as_string"

let as_label = function
  | Label l -> l
  | _ -> invalid_arg "Value.as_label: not a label"

(* ------------------------------------------------------------------ *)
(* Size estimation: drives shuffle accounting and worker memory budgets in
   the cluster simulator. Numbers are rough per-value byte costs mirroring a
   compact binary row format. *)

let rec byte_size = function
  | Null -> 1
  | Int _ | Real _ | Date _ -> 8
  | Bool _ -> 1
  | Str s -> 8 + String.length s
  | Label { args; _ } -> 8 + List.fold_left (fun acc a -> acc + byte_size a) 0 args
  | Tuple fields ->
    List.fold_left (fun acc (_, v) -> acc + 4 + byte_size v) 8 fields
  | Bag items -> List.fold_left (fun acc v -> acc + byte_size v) 16 items

(* ------------------------------------------------------------------ *)
(* Default values: get(e) on a non-singleton bag returns the default of the
   element type. *)

let rec default_of_type (ty : Types.t) : t =
  match ty with
  | Types.TScalar TInt -> Int 0
  | Types.TScalar TReal -> Real 0.
  | Types.TScalar TString -> Str ""
  | Types.TScalar TBool -> Bool false
  | Types.TScalar TDate -> Date 0
  | Types.TLabel -> Label { site = -1; args = [] }
  | Types.TTuple fields ->
    Tuple (List.map (fun (n, t) -> (n, default_of_type t)) fields)
  | Types.TBag _ | Types.TDict _ -> Bag []

(* ------------------------------------------------------------------ *)
(* Type inference of a closed value (used in tests and for value shredding
   of inputs). All bag elements are assumed homogeneous; an empty bag gets
   element type unit tuple. *)

let rec type_of = function
  | Null -> Types.TTuple [] (* arbitrary; nulls are plan-internal *)
  | Int _ -> Types.int_
  | Real _ -> Types.real
  | Str _ -> Types.string_
  | Bool _ -> Types.bool_
  | Date _ -> Types.date
  | Label _ -> Types.TLabel
  | Tuple fields -> Types.TTuple (List.map (fun (n, v) -> (n, type_of v)) fields)
  | Bag [] -> Types.TBag (Types.TTuple [])
  | Bag (x :: _) -> Types.TBag (type_of x)

(* ------------------------------------------------------------------ *)
(* Bag utilities *)

(** Canonical form of a bag for order-insensitive comparison: recursively
    sorts all bag contents. *)
let rec canonicalize = function
  | Bag items -> Bag (List.sort compare (List.map canonicalize items))
  | Tuple fields -> Tuple (List.map (fun (n, v) -> (n, canonicalize v)) fields)
  | Label { site; args } -> Label { site; args = List.map canonicalize args }
  | (Null | Int _ | Real _ | Str _ | Bool _ | Date _) as v -> v

(** Bag equality up to element order (bags are unordered collections). *)
let bag_equal a b = equal (canonicalize a) (canonicalize b)

(** Round every real to [digits] decimal places (default 6): used to compare
    results of aggregations whose floating-point summation order differs
    between evaluation strategies. *)
let rec round_reals ?(digits = 6) = function
  | Real r ->
    let m = Float.pow 10. (float_of_int digits) in
    Real (Float.round (r *. m) /. m)
  | Tuple fields -> Tuple (List.map (fun (n, v) -> (n, round_reals ~digits v)) fields)
  | Bag items -> Bag (List.map (round_reals ~digits) items)
  | Label { site; args } -> Label { site; args = List.map (round_reals ~digits) args }
  | (Null | Int _ | Str _ | Bool _ | Date _) as v -> v

(** Structural equality with a relative tolerance on reals. *)
let rec approx_equal ?(tol = 1e-3) a b =
  match a, b with
  | Real x, Real y -> Float.abs (x -. y) <= tol *. (1. +. Float.abs x)
  | Tuple xs, Tuple ys -> (
    try
      List.for_all2
        (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && approx_equal ~tol v1 v2)
        xs ys
    with Invalid_argument _ -> false)
  | Bag xs, Bag ys -> (
    try List.for_all2 (approx_equal ~tol) xs ys
    with Invalid_argument _ -> false)
  | Label l1, Label l2 -> (
    l1.site = l2.site
    &&
    try List.for_all2 (approx_equal ~tol) l1.args l2.args
    with Invalid_argument _ -> false)
  | _, _ -> equal a b

(** Bag equality up to element order and floating-point noise: bags are
    canonicalized on rounded values (so summation-order differences cannot
    perturb the sort) and compared with a relative tolerance (so sums that
    straddle a rounding boundary still match). *)
let approx_bag_equal a b =
  approx_equal
    (canonicalize (round_reals ~digits:4 a))
    (canonicalize (round_reals ~digits:4 b))

let dedup items =
  let module S = Set.Make (struct
    type nonrec t = t
    let compare = compare
  end) in
  let _, rev =
    List.fold_left
      (fun (seen, acc) v ->
        if S.mem v seen then (seen, acc) else (S.add v seen, v :: acc))
      (S.empty, []) items
  in
  List.rev rev

(* ------------------------------------------------------------------ *)
(* Pretty printing *)

let rec pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Int i -> Fmt.int ppf i
  | Real r -> Fmt.float ppf r
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b
  | Date d -> Fmt.pf ppf "d%d" d
  | Label { site; args } ->
    Fmt.pf ppf "L%d(%a)" site (Fmt.list ~sep:Fmt.comma pp) args
  | Tuple fields ->
    Fmt.pf ppf "@[<hov 1>\u{27E8}%a\u{27E9}@]"
      (Fmt.list ~sep:(Fmt.any ",@ ") (fun ppf (n, v) -> Fmt.pf ppf "%s: %a" n pp v))
      fields
  | Bag items ->
    Fmt.pf ppf "@[<hov 1>{%a}@]" (Fmt.list ~sep:(Fmt.any ",@ ") pp) items

let to_string v = Fmt.str "%a" pp v
