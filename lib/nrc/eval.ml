(** Reference interpreter for NRC and for the NRC^{Lbl} programs (labels
    and materialized-dictionary lookups) that materialization produces. This
    is the semantic oracle against which the unnesting, shredding and
    distributed execution routes are tested. *)

exception Eval_error of string

let error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

module Env = Map.Make (String)

type env = Value.t Env.t

let env_of_list l : env =
  List.fold_left (fun m (x, v) -> Env.add x v m) Env.empty l

let eval_prim op v1 v2 =
  let open Value in
  match op, v1, v2 with
  | Expr.Add, Int a, Int b -> Int (a + b)
  | Expr.Sub, Int a, Int b -> Int (a - b)
  | Expr.Mul, Int a, Int b -> Int (a * b)
  | Expr.Div, Int a, Int b -> Int (a / b)
  | Expr.Add, _, _ -> Real (as_real v1 +. as_real v2)
  | Expr.Sub, _, _ -> Real (as_real v1 -. as_real v2)
  | Expr.Mul, _, _ -> Real (as_real v1 *. as_real v2)
  | Expr.Div, _, _ ->
    let d = as_real v2 in
    if d = 0. then raise Division_by_zero else Real (as_real v1 /. d)

let eval_cmp op v1 v2 =
  let c = Value.compare v1 v2 in
  let r =
    match op with
    | Expr.Eq -> c = 0
    | Expr.Ne -> c <> 0
    | Expr.Lt -> c < 0
    | Expr.Le -> c <= 0
    | Expr.Gt -> c > 0
    | Expr.Ge -> c >= 0
  in
  Value.of_bool r

(* Grouping helper shared by groupBy/sumBy: returns groups in first-seen key
   order for determinism. *)
let group_rows ~keys rows =
  let tbl : (Value.t list, Value.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      let kvs = List.map (fun k -> Value.field row k) keys in
      match Hashtbl.find_opt tbl kvs with
      | Some cell -> cell := row :: !cell
      | None ->
        Hashtbl.add tbl kvs (ref [ row ]);
        order := kvs :: !order)
    rows;
  List.rev_map
    (fun kvs -> (kvs, List.rev !(Hashtbl.find tbl kvs)))
    !order
  |> List.rev

let add_values a b =
  match a, b with
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | _ -> Value.Real (Value.as_real a +. Value.as_real b)

let rec eval (env : env) (e : Expr.t) : Value.t =
  match e with
  | Expr.Const c -> Expr.const_value c
  | Expr.Var x -> (
    match Env.find_opt x env with
    | Some v -> v
    | None -> error "unbound variable %s" x)
  | Expr.Proj (e1, a) -> Value.field (eval env e1) a
  | Expr.Record fields ->
    Value.Tuple (List.map (fun (n, x) -> (n, eval env x)) fields)
  | Expr.Empty _ -> Value.Bag []
  | Expr.Singleton e1 -> Value.Bag [ eval env e1 ]
  | Expr.Get e1 -> (
    match eval env e1 with
    | Value.Bag [ v ] -> v
    | Value.Bag items -> (
      (* default value on non-singleton input; we use the element type
         reconstructed from a witness when available *)
      match items with
      | [] -> Value.Null
      | w :: _ -> Value.default_of_type (Value.type_of w))
    | v -> error "get on non-bag %a" Value.pp v)
  | Expr.ForUnion (x, e1, e2) ->
    let items = Value.bag_items (eval env e1) in
    Value.Bag
      (List.concat_map
         (fun item -> Value.bag_items (eval (Env.add x item env) e2))
         items)
  | Expr.Union (e1, e2) ->
    Value.Bag (Value.bag_items (eval env e1) @ Value.bag_items (eval env e2))
  | Expr.Let (x, e1, e2) -> eval (Env.add x (eval env e1) env) e2
  | Expr.Prim (op, e1, e2) -> (
    match eval_prim op (eval env e1) (eval env e2) with
    | v -> v
    | exception Division_by_zero -> error "division by zero: %a" Expr.pp e)
  | Expr.Cmp (op, e1, e2) -> eval_cmp op (eval env e1) (eval env e2)
  | Expr.Logic (Expr.And, e1, e2) ->
    if Value.as_bool (eval env e1) then eval env e2 else Value.Bool false
  | Expr.Logic (Expr.Or, e1, e2) ->
    if Value.as_bool (eval env e1) then Value.Bool true else eval env e2
  | Expr.Not e1 -> Value.Bool (not (Value.as_bool (eval env e1)))
  | Expr.If (c, e1, e2_opt) ->
    if Value.as_bool (eval env c) then eval env e1
    else (match e2_opt with Some e2 -> eval env e2 | None -> Value.Bag [])
  | Expr.Dedup e1 -> Value.Bag (Value.dedup (Value.bag_items (eval env e1)))
  | Expr.GroupBy { input; keys; group_attr } ->
    let rows = Value.bag_items (eval env input) in
    let groups = group_rows ~keys rows in
    Value.Bag
      (List.map
         (fun (kvs, members) ->
           let rest row =
             match row with
             | Value.Tuple fields ->
               Value.Tuple (List.filter (fun (n, _) -> not (List.mem n keys)) fields)
             | _ -> error "groupBy over non-tuple rows"
           in
           Value.Tuple
             (List.combine keys kvs
             @ [ (group_attr, Value.Bag (List.map rest members)) ]))
         groups)
  | Expr.SumBy { input; keys; values } ->
    let rows = Value.bag_items (eval env input) in
    let groups = group_rows ~keys rows in
    Value.Bag
      (List.map
         (fun (kvs, members) ->
           let sums =
             List.map
               (fun v ->
                 let total =
                   List.fold_left
                     (fun acc row -> add_values acc (Value.field row v))
                     (Value.Int 0) members
                 in
                 (v, total))
               values
           in
           Value.Tuple (List.combine keys kvs @ sums))
         groups)
  | Expr.NewLabel { site; args } ->
    Value.label ~site (List.map (eval env) args)
  | Expr.MatchLabel { label; site; params; body } -> (
    match eval env label with
    | Value.Label l when l.site = site && List.length l.args = List.length params ->
      let env' =
        List.fold_left2
          (fun m (p, _) v -> Env.add p v m)
          env params l.args
      in
      eval env' body
    | Value.Label _ -> Value.Bag []
    | v -> error "match on non-label %a" Value.pp v)
  | Expr.MatLookup (d, l) ->
    (* materialized dictionaries are flat bags of <label, f1, ..., fk> rows
       (Section 4, "dictionaries are represented the same as bags, with a
       label column"); lookup selects the rows of one label and strips the
       label column *)
    let lv = eval env l in
    let entries = Value.bag_items (eval env d) in
    let matching =
      List.filter_map
        (fun row ->
          match row with
          | Value.Tuple (("label", l0) :: fields) when Value.equal l0 lv ->
            Some (Value.Tuple fields)
          | Value.Tuple _ -> None
          | v -> error "MatLookup over non-tuple dictionary row %a" Value.pp v)
        entries
    in
    Value.Bag matching

(** Evaluate a program: a sequence of assignments extending the environment,
    returning the final environment. *)
let eval_program (env : env) (assigns : (string * Expr.t) list) : env =
  List.fold_left (fun env (x, e) -> Env.add x (eval env e) env) env assigns
