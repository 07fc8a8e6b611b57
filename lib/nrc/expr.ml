(** Abstract syntax of NRC (Figure 1) and of the label constructs of
    shredded programs (Section 4): [NewLabel], [MatchLabel] and [MatLookup].
    Source programs are checked to be label-free by
    {!Typecheck.check_source}.

    Conventions:
    - [ForUnion (x, e1, e2)] is [for x in e1 union e2].
    - [If (c, e, None)] is the bag-typed [if c then e] (empty bag otherwise).
    - [GroupBy] introduces the bag-valued attribute [group_attr] holding the
      non-key attributes of each group; [SumBy] sums the [values] attributes
      per distinct key.
    - [NewLabel] sites identify the syntactic creation point of labels; two
      labels are equal iff same site and equal captured arguments. *)

type var = string

type prim = Add | Sub | Mul | Div
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type logic = And | Or

type const =
  | CInt of int
  | CReal of float
  | CString of string
  | CBool of bool
  | CDate of int

type t =
  | Const of const
  | Var of var
  | Proj of t * string
  | Record of (string * t) list
  | Empty of Types.t (* element type of the empty bag *)
  | Singleton of t
  | Get of t
  | ForUnion of var * t * t
  | Union of t * t
  | Let of var * t * t
  | Prim of prim * t * t
  | Cmp of cmp * t * t
  | Logic of logic * t * t
  | Not of t
  | If of t * t * t option
  | Dedup of t
  | GroupBy of { input : t; keys : string list; group_attr : string }
  | SumBy of { input : t; keys : string list; values : string list }
  (* --- labels and materialized dictionaries (Section 4) --- *)
  | NewLabel of { site : int; args : t list }
  | MatchLabel of { label : t; site : int; params : (var * Types.t) list; body : t }
  | MatLookup of t * t (* materialized dictionary lookup *)

(* ------------------------------------------------------------------ *)
(* Constructors and helpers *)

let int_ i = Const (CInt i)
let real r = Const (CReal r)
let str s = Const (CString s)
let bool_ b = Const (CBool b)
let date d = Const (CDate d)
let var x = Var x
let proj e a = Proj (e, a)

(** [path x [a; b]] is [x.a.b]. *)
let path x attrs = List.fold_left proj (Var x) attrs

(** [rooted_path e] is [Some (x, [a; b])] when [e] is [x.a.b]. *)
let rooted_path e =
  let rec go acc = function
    | Var v -> Some (v, acc)
    | Proj (e1, a) -> go (a :: acc) e1
    | _ -> None
  in
  go [] e

let record fields = Record fields
let sng e = Singleton e
let eq a b = Cmp (Eq, a, b)

let conj = function
  | [] -> bool_ true
  | c :: cs -> List.fold_left (fun a b -> Logic (And, a, b)) c cs

let rec conjuncts = function
  | Logic (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let const_value = function
  | CInt i -> Value.Int i
  | CReal r -> Value.Real r
  | CString s -> Value.Str s
  | CBool b -> Value.Bool b
  | CDate d -> Value.Date d

let const_type = function
  | CInt _ -> Types.int_
  | CReal _ -> Types.real
  | CString _ -> Types.string_
  | CBool _ -> Types.bool_
  | CDate _ -> Types.date

(* ------------------------------------------------------------------ *)
(* Traversal: map over immediate subexpressions. The binder-aware folds
   below are built on this. *)

let map_children f e =
  match e with
  | Const _ | Var _ | Empty _ -> e
  | Proj (e1, a) -> Proj (f e1, a)
  | Record fields -> Record (List.map (fun (n, x) -> (n, f x)) fields)
  | Singleton e1 -> Singleton (f e1)
  | Get e1 -> Get (f e1)
  | ForUnion (x, e1, e2) -> ForUnion (x, f e1, f e2)
  | Union (e1, e2) -> Union (f e1, f e2)
  | Let (x, e1, e2) -> Let (x, f e1, f e2)
  | Prim (op, e1, e2) -> Prim (op, f e1, f e2)
  | Cmp (op, e1, e2) -> Cmp (op, f e1, f e2)
  | Logic (op, e1, e2) -> Logic (op, f e1, f e2)
  | Not e1 -> Not (f e1)
  | If (c, e1, e2) -> If (f c, f e1, Option.map f e2)
  | Dedup e1 -> Dedup (f e1)
  | GroupBy g -> GroupBy { g with input = f g.input }
  | SumBy s -> SumBy { s with input = f s.input }
  | NewLabel { site; args } -> NewLabel { site; args = List.map f args }
  | MatchLabel m -> MatchLabel { m with label = f m.label; body = f m.body }
  | MatLookup (e1, e2) -> MatLookup (f e1, f e2)

(* ------------------------------------------------------------------ *)
(* Free variables *)

module VSet = Set.Make (String)

let rec free_vars e : VSet.t =
  match e with
  | Const _ | Empty _ -> VSet.empty
  | Var x -> VSet.singleton x
  | ForUnion (x, e1, e2) ->
    VSet.union (free_vars e1) (VSet.remove x (free_vars e2))
  | Let (x, e1, e2) ->
    VSet.union (free_vars e1) (VSet.remove x (free_vars e2))
  | MatchLabel { label; params; body; _ } ->
    let body_fv =
      List.fold_left (fun s (p, _) -> VSet.remove p s) (free_vars body) params
    in
    VSet.union (free_vars label) body_fv
  | _ ->
    let acc = ref VSet.empty in
    let collect sub =
      acc := VSet.union !acc (free_vars sub);
      sub
    in
    ignore (map_children collect e);
    !acc

let is_free x e = VSet.mem x (free_vars e)

(* ------------------------------------------------------------------ *)
(* Fresh names and capture-avoiding substitution *)

let fresh_counter = ref 0

let fresh ?(hint = "v") () =
  incr fresh_counter;
  Printf.sprintf "%s%%%d" hint !fresh_counter

(** [subst x e' e] replaces free occurrences of [Var x] in [e] by [e'],
    renaming binders that would capture free variables of [e']. *)
let rec subst x e' e =
  match e with
  | Var y -> if String.equal x y then e' else e
  | ForUnion (y, e1, e2) ->
    let e1 = subst x e' e1 in
    if String.equal x y then ForUnion (y, e1, e2)
    else if VSet.mem y (free_vars e') then begin
      let y' = fresh ~hint:y () in
      ForUnion (y', e1, subst x e' (subst y (Var y') e2))
    end
    else ForUnion (y, e1, subst x e' e2)
  | Let (y, e1, e2) ->
    let e1 = subst x e' e1 in
    if String.equal x y then Let (y, e1, e2)
    else if VSet.mem y (free_vars e') then begin
      let y' = fresh ~hint:y () in
      Let (y', e1, subst x e' (subst y (Var y') e2))
    end
    else Let (y, e1, subst x e' e2)
  | MatchLabel { label; site; params; body } ->
    let label = subst x e' label in
    if List.exists (fun (p, _) -> String.equal x p) params then
      MatchLabel { label; site; params; body }
    else begin
      let fv' = free_vars e' in
      let captured = List.filter (fun (p, _) -> VSet.mem p fv') params in
      match captured with
      | [] -> MatchLabel { label; site; params; body = subst x e' body }
      | _ ->
        let renaming = List.map (fun (p, _) -> (p, fresh ~hint:p ())) captured in
        let params =
          List.map
            (fun (p, ty) ->
              match List.assoc_opt p renaming with
              | Some p' -> (p', ty)
              | None -> (p, ty))
            params
        in
        let body =
          List.fold_left (fun b (p, p') -> subst p (Var p') b) body renaming
        in
        MatchLabel { label; site; params; body = subst x e' body }
    end
  | _ -> map_children (subst x e') e

(* ------------------------------------------------------------------ *)
(* Structural equality (alpha-insensitive equality is not needed; generated
   names are globally fresh) *)

let equal : t -> t -> bool = Stdlib.( = )

(* ------------------------------------------------------------------ *)
(* Pretty printing *)

let prim_to_string = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let cmp_to_string = function
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let logic_to_string = function And -> "&&" | Or -> "||"

let rec pp ppf e =
  match e with
  | Const c -> Value.pp ppf (const_value c)
  | Var x -> Fmt.string ppf x
  | Proj (e1, a) -> Fmt.pf ppf "%a.%s" pp_atom e1 a
  | Record fields ->
    Fmt.pf ppf "@[<hov 1>\u{27E8}%a\u{27E9}@]"
      (Fmt.list ~sep:(Fmt.any ",@ ")
         (fun ppf (n, x) -> Fmt.pf ppf "%s := %a" n pp x))
      fields
  | Empty ty -> Fmt.pf ppf "\u{2205}[%a]" Types.pp ty
  | Singleton e1 -> Fmt.pf ppf "{%a}" pp e1
  | Get e1 -> Fmt.pf ppf "get(%a)" pp e1
  | ForUnion (x, e1, e2) ->
    Fmt.pf ppf "@[<hv 0>for %s in %a union@ %a@]" x pp e1 pp e2
  | Union (e1, e2) -> Fmt.pf ppf "@[<hv 0>%a@ \u{228E} %a@]" pp e1 pp e2
  | Let (x, e1, e2) ->
    Fmt.pf ppf "@[<hv 0>let %s := %a in@ %a@]" x pp e1 pp e2
  | Prim (op, e1, e2) ->
    Fmt.pf ppf "%a %s %a" pp_atom e1 (prim_to_string op) pp_atom e2
  | Cmp (op, e1, e2) ->
    Fmt.pf ppf "%a %s %a" pp_atom e1 (cmp_to_string op) pp_atom e2
  | Logic (op, e1, e2) ->
    Fmt.pf ppf "%a %s %a" pp_atom e1 (logic_to_string op) pp_atom e2
  | Not e1 -> Fmt.pf ppf "\u{00AC}%a" pp_atom e1
  | If (c, e1, None) -> Fmt.pf ppf "@[<hv 2>if %a then@ %a@]" pp c pp e1
  | If (c, e1, Some e2) ->
    Fmt.pf ppf "@[<hv 2>if %a then@ %a@ else %a@]" pp c pp e1 pp e2
  | Dedup e1 -> Fmt.pf ppf "dedup(%a)" pp e1
  | GroupBy { input; keys; group_attr } ->
    Fmt.pf ppf "groupBy^%s_{%s}(%a)" group_attr (String.concat "," keys) pp input
  | SumBy { input; keys; values } ->
    Fmt.pf ppf "sumBy^{%s}_{%s}(%a)" (String.concat "," values)
      (String.concat "," keys) pp input
  | NewLabel { site; args } ->
    Fmt.pf ppf "NewLabel_%d(%a)" site (Fmt.list ~sep:Fmt.comma pp) args
  | MatchLabel { label; site; params; body } ->
    Fmt.pf ppf "@[<hv 2>match %a = NewLabel_%d(%s) then@ %a@]" pp label site
      (String.concat "," (List.map fst params)) pp body
  | MatLookup (e1, e2) -> Fmt.pf ppf "MatLookup(%a, %a)" pp e1 pp e2

and pp_atom ppf e =
  match e with
  | Const _ | Var _ | Proj _ | Record _ | Singleton _ | Get _ | Empty _
  | Dedup _ | GroupBy _ | SumBy _ | NewLabel _ | MatLookup _ ->
    pp ppf e
  | _ -> Fmt.pf ppf "(%a)" pp e

let to_string e = Fmt.str "%a" pp e
