(** Types of the nested relational calculus (Figure 1 of the paper) plus the
    label and dictionary types of the shredding extension NRC^{Lbl+lambda}
    (Section 4).

    The grammar restricts bag contents to flat tuples or scalars:
    {v
      T ::= S | C           C ::= Bag(F)
      F ::= <a1:T,...,an:T> | S      S ::= int | real | string | bool | date
    v}
    Labels behave as an extra scalar-like atomic type; a dictionary type
    [Label -> Bag(F)] is [TDict f] where [f] is the bag-element type. *)

type scalar = TInt | TReal | TString | TBool | TDate

type t =
  | TScalar of scalar
  | TTuple of (string * t) list
  | TBag of t
  | TLabel (* atomic label type; runtime labels carry their own payload *)
  | TDict of t (* Label -> Bag(t) *)

let int_ = TScalar TInt
let real = TScalar TReal
let string_ = TScalar TString
let bool_ = TScalar TBool
let date = TScalar TDate
let tuple fields = TTuple fields
let bag t = TBag t
let label = TLabel
let dict t = TDict t

let rec equal a b =
  match a, b with
  | TScalar s1, TScalar s2 -> s1 = s2
  | TTuple f1, TTuple f2 ->
    (try List.for_all2 (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && equal t1 t2) f1 f2
     with Invalid_argument _ -> false)
  | TBag t1, TBag t2 -> equal t1 t2
  | TLabel, TLabel -> true
  | TDict t1, TDict t2 -> equal t1 t2
  | (TScalar _ | TTuple _ | TBag _ | TLabel | TDict _), _ -> false

(** A type is flat when it contains no bag type (labels and scalars are
    flat; dictionaries are not). *)
let rec is_flat = function
  | TScalar _ | TLabel -> true
  | TTuple fields -> List.for_all (fun (_, t) -> is_flat t) fields
  | TBag _ | TDict _ -> false

(** A flat bag: a bag of scalars or of tuples with flat attributes. *)
let is_flat_bag = function TBag t -> is_flat t | _ -> false

let is_bag = function TBag _ -> true | _ -> false

let tuple_fields = function
  | TTuple fields -> fields
  | _ -> invalid_arg "Types.tuple_fields: not a tuple type"

let field ty name =
  match ty with
  | TTuple fields ->
    (try List.assoc name fields
     with Not_found ->
       invalid_arg (Printf.sprintf "Types.field: no attribute %S" name))
  | _ -> invalid_arg "Types.field: not a tuple type"

let element = function
  | TBag t -> t
  | _ -> invalid_arg "Types.element: not a bag type"

(** Maximum nesting depth of bags: a flat bag has depth 1, a bag whose tuples
    contain a flat bag attribute has depth 2, etc. Scalars have depth 0. *)
let rec depth = function
  | TScalar _ | TLabel -> 0
  | TTuple fields -> List.fold_left (fun acc (_, t) -> max acc (depth t)) 0 fields
  | TBag t | TDict t -> 1 + depth t

let scalar_to_string = function
  | TInt -> "int"
  | TReal -> "real"
  | TString -> "string"
  | TBool -> "bool"
  | TDate -> "date"

let rec pp ppf = function
  | TScalar s -> Fmt.string ppf (scalar_to_string s)
  | TTuple fields ->
    Fmt.pf ppf "@[<hov 1>\u{27E8}%a\u{27E9}@]"
      (Fmt.list ~sep:(Fmt.any ",@ ") (fun ppf (n, t) -> Fmt.pf ppf "%s: %a" n pp t))
      fields
  | TBag t -> Fmt.pf ppf "Bag(%a)" pp t
  | TLabel -> Fmt.string ppf "Label"
  | TDict t -> Fmt.pf ppf "Label \u{2192} Bag(%a)" pp t

let to_string t = Fmt.str "%a" pp t
