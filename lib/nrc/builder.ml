(** A small combinator DSL for constructing NRC programs readably, used by
    examples, benchmarks, and tests.

    {[
      let open Nrc.Builder in
      for_ "cop" (input "COP") (fun cop ->
        sng (record [ "cname", cop #. "cname";
                      "total", ... ]))
    ]} *)

let input name = Expr.Var name
let v = Expr.var
let ( #. ) e a = Expr.Proj (e, a)
let int_ = Expr.int_
let real = Expr.real
let str = Expr.str
let bool_ = Expr.bool_
let date = Expr.date
let record = Expr.record
let sng = Expr.sng
let empty ty = Expr.Empty ty
let get e = Expr.Get e

(** [for_ x src body] builds [for x in src union body x], passing the bound
    variable to the body as an expression. *)
let for_ x src body = Expr.ForUnion (x, src, body (Expr.Var x))

let let_ x e body = Expr.Let (x, e, body (Expr.Var x))
let union = List.fold_left (fun a b -> Expr.Union (a, b)) (* with seed *)
let ( ++ ) a b = Expr.Union (a, b)
let where c e = Expr.If (c, e, None)
let ( == ) a b = Expr.Cmp (Expr.Eq, a, b)
let ( <> ) a b = Expr.Cmp (Expr.Ne, a, b)
let ( < ) a b = Expr.Cmp (Expr.Lt, a, b)
let ( <= ) a b = Expr.Cmp (Expr.Le, a, b)
let ( > ) a b = Expr.Cmp (Expr.Gt, a, b)
let ( >= ) a b = Expr.Cmp (Expr.Ge, a, b)
let ( && ) a b = Expr.Logic (Expr.And, a, b)
let ( || ) a b = Expr.Logic (Expr.Or, a, b)
let ( + ) a b = Expr.Prim (Expr.Add, a, b)
let ( - ) a b = Expr.Prim (Expr.Sub, a, b)
let ( * ) a b = Expr.Prim (Expr.Mul, a, b)
let ( / ) a b = Expr.Prim (Expr.Div, a, b)
let dedup e = Expr.Dedup e

let group_by ?(group_attr = "group") keys e =
  Expr.GroupBy { input = e; keys; group_attr }

let sum_by ~keys ~values e = Expr.SumBy { input = e; keys; values }

(* Type shorthands *)
let t_int = Types.int_
let t_real = Types.real
let t_str = Types.string_
let t_date = Types.date
let t_bag t = Types.TBag t
let t_tup fields = Types.TTuple fields
