(** Type checker for NRC and its shredding extension NRC^{Lbl} (labels and
    lookups in materialized dictionaries).

    Implements the typing discipline of Figure 1 with the paper's
    restrictions: the input of [dedup] must be a flat bag, and [groupBy] /
    [sumBy] grouping attributes must be flat. [check_source] additionally
    rejects the shredding-extension constructs so that user-facing programs
    are plain NRC. *)

exception Type_error of string

let error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

module Env = Map.Make (String)

type env = Types.t Env.t

let env_of_list l : env =
  List.fold_left (fun m (x, t) -> Env.add x t m) Env.empty l

let numeric = function
  | Types.TScalar (TInt | TReal) -> true
  | _ -> false

let join_numeric a b =
  match a, b with
  | Types.TScalar TInt, Types.TScalar TInt -> Types.int_
  | _, _ -> Types.real

(** Bags may only contain scalars, labels, or tuples (Figure 1 restricts bag
    contents to flat types or tuples whose attributes may themselves be
    bags). *)
let check_bag_element = function
  | Types.TBag _ -> error "bags of bags are not allowed (Figure 1)"
  | Types.TScalar _ | Types.TTuple _ | Types.TLabel -> ()

let rec infer (env : env) (e : Expr.t) : Types.t =
  match e with
  | Expr.Const c -> Expr.const_type c
  | Expr.Var x -> (
    match Env.find_opt x env with
    | Some t -> t
    | None -> error "unbound variable %s" x)
  | Expr.Proj (e1, a) -> (
    match infer env e1 with
    | Types.TTuple fields -> (
      match List.assoc_opt a fields with
      | Some t -> t
      | None -> error "tuple has no attribute %s" a)
    | t -> error "projection .%s on non-tuple type %a" a Types.pp t)
  | Expr.Record fields ->
    let seen = Hashtbl.create 8 in
    Types.TTuple
      (List.map
         (fun (n, x) ->
           if Hashtbl.mem seen n then error "duplicate attribute %s" n;
           Hashtbl.add seen n ();
           (n, infer env x))
         fields)
  | Expr.Empty elem_ty ->
    check_bag_element elem_ty;
    Types.TBag elem_ty
  | Expr.Singleton e1 ->
    let t = infer env e1 in
    check_bag_element t;
    Types.TBag t
  | Expr.Get e1 -> (
    match infer env e1 with
    | Types.TBag t -> t
    | t -> error "get on non-bag type %a" Types.pp t)
  | Expr.ForUnion (x, e1, e2) -> (
    match infer env e1 with
    | Types.TBag elem -> (
      match infer (Env.add x elem env) e2 with
      | Types.TBag _ as t -> t
      | t -> error "for body must have bag type, got %a" Types.pp t)
    | t -> error "for source must have bag type, got %a" Types.pp t)
  | Expr.Union (e1, e2) ->
    let t1 = infer env e1 and t2 = infer env e2 in
    if not (Types.is_bag t1) then error "union on non-bag %a" Types.pp t1;
    if not (Types.equal t1 t2) then
      error "union of different types %a vs %a" Types.pp t1 Types.pp t2;
    t1
  | Expr.Let (x, e1, e2) ->
    let t1 = infer env e1 in
    infer (Env.add x t1 env) e2
  | Expr.Prim (op, e1, e2) ->
    let t1 = infer env e1 and t2 = infer env e2 in
    if not (numeric t1) then
      error "%s on non-numeric %a" (Expr.prim_to_string op) Types.pp t1;
    if not (numeric t2) then
      error "%s on non-numeric %a" (Expr.prim_to_string op) Types.pp t2;
    join_numeric t1 t2
  | Expr.Cmp (op, e1, e2) ->
    let t1 = infer env e1 and t2 = infer env e2 in
    let comparable =
      match t1, t2 with
      | Types.TLabel, Types.TLabel -> op = Expr.Eq || op = Expr.Ne
      | _ -> Types.equal t1 t2 && Types.is_flat t1
    in
    if not comparable then
      error "cannot compare %a with %a" Types.pp t1 Types.pp t2;
    Types.bool_
  | Expr.Logic (_, e1, e2) ->
    let t1 = infer env e1 and t2 = infer env e2 in
    if not (Types.equal t1 Types.bool_ && Types.equal t2 Types.bool_) then
      error "boolean operator on non-boolean operands";
    Types.bool_
  | Expr.Not e1 ->
    if not (Types.equal (infer env e1) Types.bool_) then
      error "negation of non-boolean";
    Types.bool_
  | Expr.If (c, e1, e2_opt) -> (
    if not (Types.equal (infer env c) Types.bool_) then
      error "if condition must be boolean";
    let t1 = infer env e1 in
    match e2_opt with
    | Some e2 ->
      let t2 = infer env e2 in
      if not (Types.equal t1 t2) then
        error "if branches differ: %a vs %a" Types.pp t1 Types.pp t2;
      t1
    | None ->
      if not (Types.is_bag t1) then
        error "if-then without else must have bag type, got %a" Types.pp t1;
      t1)
  | Expr.Dedup e1 -> (
    match infer env e1 with
    | Types.TBag elem as t ->
      if not (Types.is_flat elem) then
        error "dedup input must be a flat bag (Section 2), got %a" Types.pp t;
      t
    | t -> error "dedup on non-bag %a" Types.pp t)
  | Expr.GroupBy { input; keys; group_attr } -> (
    match infer env input with
    | Types.TBag (Types.TTuple fields) ->
      let key_fields, rest = split_keys ~keys fields in
      if List.mem_assoc group_attr key_fields then
        error "group attribute %s collides with a key" group_attr;
      Types.TBag
        (Types.TTuple (key_fields @ [ (group_attr, Types.TBag (Types.TTuple rest)) ]))
    | t -> error "groupBy input must be a bag of tuples, got %a" Types.pp t)
  | Expr.SumBy { input; keys; values } -> (
    match infer env input with
    | Types.TBag (Types.TTuple fields) ->
      let key_fields, _ = split_keys ~keys fields in
      let value_fields =
        List.map
          (fun v ->
            match List.assoc_opt v fields with
            | None -> error "sumBy value attribute %s missing" v
            | Some t ->
              if not (numeric t) then
                error "sumBy value attribute %s is not numeric" v;
              (v, t))
          values
      in
      Types.TBag (Types.TTuple (key_fields @ value_fields))
    | t -> error "sumBy input must be a bag of tuples, got %a" Types.pp t)
  | Expr.NewLabel { args; _ } ->
    List.iter
      (fun a ->
        let t = infer env a in
        if not (Types.is_flat t) then
          error "NewLabel captures non-flat value of type %a" Types.pp t)
      args;
    Types.TLabel
  | Expr.MatchLabel { label; params; body; _ } ->
    if not (Types.equal (infer env label) Types.TLabel) then
      error "match subject must be a label";
    List.iter
      (fun (p, t) ->
        if not (Types.is_flat t) then
          error "label parameter %s has non-flat type %a" p Types.pp t)
      params;
    let env' =
      List.fold_left (fun m (p, t) -> Env.add p t m) env params
    in
    let t = infer env' body in
    if not (Types.is_bag t) then
      error "match body must have bag type, got %a" Types.pp t;
    t
  | Expr.MatLookup (d, l) -> (
    if not (Types.equal (infer env l) Types.TLabel) then
      error "MatLookup key must be a label";
    match infer env d with
    | Types.TBag (Types.TTuple (("label", Types.TLabel) :: fields)) ->
      Types.TBag (Types.TTuple fields)
    | t ->
      error "MatLookup input must be a flat dictionary (label column first), got %a"
        Types.pp t)

and split_keys ~keys fields =
  let key_fields =
    List.map
      (fun k ->
        match List.assoc_opt k fields with
        | None -> error "grouping attribute %s missing from input" k
        | Some t ->
          if not (Types.is_flat t) then
            error "grouping attribute %s must be flat (Section 2)" k;
          (k, t))
      keys
  in
  let rest = List.filter (fun (n, _) -> not (List.mem n keys)) fields in
  (key_fields, rest)

(** Reject shredding-extension constructs in user-facing source programs. *)
let rec check_label_free (e : Expr.t) =
  match e with
  | Expr.NewLabel _ | Expr.MatchLabel _ | Expr.MatLookup _ ->
    error "source NRC programs may not use shredding constructs: %a" Expr.pp e
  | _ ->
    ignore
      (Expr.map_children
         (fun sub ->
           check_label_free sub;
           sub)
         e)

let check_source (env : env) (e : Expr.t) : Types.t =
  check_label_free e;
  infer env e
