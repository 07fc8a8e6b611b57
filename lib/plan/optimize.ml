(** Plan optimizations of Section 3: selection pushdown, column pruning
    (projection pushdown to scans), and aggregation pushdown past joins when
    the join key of the other side is known to be unique. The join+nest ->
    cogroup fusion is the separate pass {!cogroup}, run after these; it is
    the one place that decides where a cogroup is safe.

    All rewrites are semantics-preserving and are validated against
    {!Local_eval} in the test suite. *)

type config = {
  push_selects : bool;
  prune_columns : bool;
  push_aggs : bool;
  unique_keys : (string * string list) list;
      (** [(input, fields)]: the named input is keyed uniquely by [fields]
          (e.g. [("Part", ["pid"])]); licenses aggregation pushdown across a
          join against that input *)
}

let default =
  { push_selects = true; prune_columns = true; push_aggs = true; unique_keys = [] }

let none =
  { push_selects = false; prune_columns = false; push_aggs = false; unique_keys = [] }

(* ------------------------------------------------------------------ *)
(* Demand analysis for column pruning *)

module SSet = Set.Make (String)
module SMap = Map.Make (String)

type demand = Whole | Fields of SSet.t

let join_demand a b =
  match a, b with
  | Whole, _ | _, Whole -> Whole
  | Fields x, Fields y -> Fields (SSet.union x y)

let demand_of_use = function
  | [] -> Whole
  | f :: _ -> Fields (SSet.singleton f)

(* (col, field-path) uses of an sexpr *)
let rec uses (e : Sexpr.t) : (string * string list) list =
  match e with
  | Sexpr.Col (c :: rest) -> [ (c, rest) ]
  | Sexpr.Col [] -> []
  | Sexpr.Const _ -> []
  | Sexpr.Prim (_, a, b) | Sexpr.Cmp (_, a, b) | Sexpr.Logic (_, a, b) ->
    uses a @ uses b
  | Sexpr.Not a | Sexpr.IsNull a | Sexpr.LabelArg (a, _) | Sexpr.IsLabelSite (a, _) ->
    uses a
  | Sexpr.MkLabel { args; _ } -> List.concat_map uses args
  | Sexpr.MkTuple fields -> List.concat_map (fun (_, x) -> uses x) fields

let add_uses demands exprs =
  List.fold_left
    (fun d e ->
      List.fold_left
        (fun d (c, path) ->
          SMap.update c
            (fun cur ->
              Some
                (join_demand
                   (Option.value cur ~default:(Fields SSet.empty))
                   (demand_of_use path)))
            d)
        d (uses e))
    demands exprs

let whole_demands cols =
  List.fold_left (fun d c -> SMap.add c Whole d) SMap.empty cols

(* the demands of a two-sided operator, split into its left side's and its
   right side's *)
let split_demands left demands =
  let lcols = SSet.of_list (Op.columns left) in
  SMap.partition (fun c _ -> SSet.mem c lcols) demands

(** Rewrite the plan, inserting narrowing projections directly above scans
    whose binder is only ever used through a known set of fields. *)
let rec prune (demands : demand SMap.t) (op : Op.t) : Op.t =
  match op with
  | Op.Nil _ | Op.UnitRow -> op
  | Op.Scan { binder; _ } -> (
    match SMap.find_opt binder demands with
    | Some (Fields fs) when not (SSet.is_empty fs) ->
      let fields =
        List.map (fun f -> (f, Sexpr.Col [ binder; f ])) (SSet.elements fs)
      in
      Op.Project ([ (binder, Sexpr.MkTuple fields) ], op)
    | _ -> op)
  | Op.Select (p, child) -> Op.Select (p, prune (add_uses demands [ p ]) child)
  | Op.Project (fields, child) ->
    let child_demands = add_uses SMap.empty (List.map snd fields) in
    Op.Project (fields, prune child_demands child)
  | Op.Join { left; right; lkey; rkey; kind } ->
    let dl, dr = split_demands left (add_uses demands (lkey @ rkey)) in
    Op.Join { left = prune dl left; right = prune dr right; lkey; rkey; kind }
  | Op.Product (left, right) ->
    let dl, dr = split_demands left demands in
    Op.Product (prune dl left, prune dr right)
  | Op.Cogroup c ->
    let exprs = List.map snd c.keys @ [ c.item; c.presence ] @ c.lkey @ c.rkey in
    let dl, dr = split_demands c.left (add_uses SMap.empty exprs) in
    Op.Cogroup { c with left = prune dl c.left; right = prune dr c.right }
  | Op.Unnest { input; path; binder; outer; drop } ->
    let d = SMap.remove binder demands in
    (* the consumed bag attribute can be projected away (the paper's mu
       semantics) when nothing above still demands it *)
    let drop =
      drop
      ||
      match path with
      | [ col ] -> (
        match SMap.find_opt col d with None -> true | Some _ -> false)
      | [ col; attr ] -> (
        match SMap.find_opt col d with
        | None -> true
        | Some Whole -> false
        | Some (Fields fs) -> not (SSet.mem attr fs))
      | _ -> false
    in
    let d = add_uses d [ Sexpr.Col path ] in
    Op.Unnest { input = prune d input; path; binder; outer; drop }
  | Op.AddIndex { input; col } ->
    Op.AddIndex { input = prune (SMap.remove col demands) input; col }
  | Op.NestBag { input; keys; agg_keys; item; presence; out } ->
    let exprs =
      List.map snd keys @ List.map snd agg_keys @ [ item; presence ]
    in
    Op.NestBag
      { input = prune (add_uses SMap.empty exprs) input;
        keys; agg_keys; item; presence; out }
  | Op.NestSum { input; keys; agg_keys; aggs; presence } ->
    let exprs =
      List.map snd keys @ List.map snd agg_keys @ List.map snd aggs
      @ [ presence ]
    in
    Op.NestSum
      { input = prune (add_uses SMap.empty exprs) input;
        keys; agg_keys; aggs; presence }
  | Op.Dedup child ->
    (* pruning through dedup would change multiplicities downstream *)
    Op.Dedup (prune (whole_demands (Op.columns child)) child)
  | Op.UnionAll (left, right) ->
    Op.UnionAll (prune demands left, prune demands right)
  | Op.BagToDict { input; label } ->
    Op.BagToDict { input = prune (add_uses demands [ label ]) input; label }

let prune_columns op = prune (whole_demands (Op.columns op)) op

(* ------------------------------------------------------------------ *)
(* Selection pushdown *)

let rec push_select (op : Op.t) : Op.t =
  match op with
  | Op.Select (p, Op.Join ({ left; right; kind; _ } as j)) ->
    if Sexpr.reads_only (Op.columns left) [ p ] then
      push_select (Op.Join { j with left = Op.Select (p, left) })
    else if kind = Op.Inner && Sexpr.reads_only (Op.columns right) [ p ] then
      push_select (Op.Join { j with right = Op.Select (p, right) })
    else Op.Select (p, push_select (Op.Join j))
  | Op.Select (p, Op.Product (l, r)) ->
    if Sexpr.reads_only (Op.columns l) [ p ] then
      push_select (Op.Product (Op.Select (p, l), r))
    else if Sexpr.reads_only (Op.columns r) [ p ] then
      push_select (Op.Product (l, Op.Select (p, r)))
    else Op.Select (p, push_select (Op.Product (l, r)))
  | Op.Select (p, Op.Unnest ({ input; binder; _ } as u)) ->
    if (not (List.mem binder (Sexpr.cols_used p))) && not u.outer then
      push_select (Op.Unnest { u with input = Op.Select (p, input) })
    else Op.Select (p, push_select (Op.Unnest u))
  | Op.Select (p, Op.Select (q, child)) ->
    push_select (Op.Select (Sexpr.Logic (Nrc.Expr.And, p, q), child))
  | op -> Op.map_children push_select op

(* ------------------------------------------------------------------ *)
(* Aggregation pushdown.

   Gamma-plus over Join(left, right) where the single aggregand factors as
   lv * rv (or is entirely left-sided), every key expression is
   single-sided, the left join key is left-sided, the presence predicate is
   right-sided, and the right join key is unique: pre-aggregate lv on the
   left grouped by (left-sided keys + join key), join, then sum
   partial * rv. This is the rewrite of Example 2 ("push the sum aggregate
   past the join to compute partial sums of qty values"). Uniqueness of the
   right key guarantees the pre-aggregated groups are not duplicated by the
   join. *)

let scan_of_unique unique_keys (right : Op.t) (rkey : Sexpr.t list) : bool =
  let rec base = function
    | Op.Scan { input; binder } -> Some (input, binder)
    | Op.Select (_, c) -> base c
    | Op.Project ([ (b, Sexpr.MkTuple _) ], c) -> (
      match base c with Some (i, b') when b = b' -> Some (i, b') | _ -> None)
    | _ -> None
  in
  match base right with
  | None -> false
  | Some (input, binder) -> (
    match List.assoc_opt input unique_keys with
    | None -> false
    | Some ufields ->
      let joined_fields =
        List.filter_map
          (function Sexpr.Col [ b; f ] when b = binder -> Some f | _ -> None)
          rkey
      in
      List.length joined_fields = List.length rkey
      && List.for_all (fun f -> List.mem f joined_fields) ufields)

(* decompose a conjunction into its conjuncts *)
let rec conjuncts = function
  | Sexpr.Logic (Nrc.Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conj_of = function
  | [] -> Sexpr.Const (Nrc.Value.Bool true)
  | c :: cs -> List.fold_left (fun a b -> Sexpr.Logic (Nrc.Expr.And, a, b)) c cs

let rec push_agg unique_keys (op : Op.t) : Op.t =
  match op with
  | Op.NestSum
      { input = Op.Join { left; right; lkey; rkey; kind };
        keys; agg_keys; aggs = [ (out, value) ]; presence }
    when scan_of_unique unique_keys right rkey ->
    let lcols = Op.columns left in
    let left_sided e = Sexpr.reads_only lcols [ e ] in
    let right_sided e = Sexpr.reads_only (Op.columns right) [ e ] in
    (* A left-sided conjunct of the form not(isnull(x)) is implied by the
       right-sided presence whenever some join key references x: a Null x
       nulls the key, the (outer) join then cannot match, and the right side
       comes back Null. Such conjuncts may be dropped from the pushed
       aggregate. *)
    let implied_by_join = function
      | Sexpr.Not (Sexpr.IsNull (Sexpr.Col [ x ])) ->
        List.exists (fun k -> List.mem x (Sexpr.cols_used k)) lkey
      | _ -> false
    in
    let right_conjs, left_conjs =
      List.partition right_sided (conjuncts presence)
    in
    let presence_splittable = List.for_all implied_by_join left_conjs in
    let presence_right = conj_of right_conjs in
    let split_value =
      if left_sided value then Some (value, None)
      else
        match value with
        | Sexpr.Prim (Nrc.Expr.Mul, lv, rv) when left_sided lv && right_sided rv ->
          Some (lv, Some rv)
        | Sexpr.Prim (Nrc.Expr.Mul, rv, lv) when left_sided lv && right_sided rv ->
          Some (lv, Some rv)
        | _ -> None
    in
    let keys_ok =
      List.for_all (fun (_, e) -> left_sided e) keys
      && List.for_all (fun (_, e) -> left_sided e || right_sided e) agg_keys
    in
    (match split_value with
    | Some (lv, rv_opt)
      when keys_ok && List.for_all left_sided lkey && presence_splittable ->
      let partial = "partial%sum" in
      let left_aks = List.filter (fun (_, e) -> left_sided e) agg_keys in
      let jkeys = List.mapi (fun i e -> (Printf.sprintf "jk%%%d" i, e)) lkey in
      let pre =
        Op.NestSum
          { input = push_agg unique_keys left;
            keys = keys @ left_aks @ jkeys;
            agg_keys = [];
            aggs = [ (partial, lv) ];
            presence = Sexpr.Const (Nrc.Value.Bool true) }
      in
      let lkey' = List.map (fun (n, _) -> Sexpr.Col [ n ]) jkeys in
      let joined = Op.Join { left = pre; right; lkey = lkey'; rkey; kind } in
      let refresh (n, e) =
        if left_sided e then (n, Sexpr.Col [ n ]) else (n, e)
      in
      let value' =
        match rv_opt with
        | None -> Sexpr.Col [ partial ]
        | Some rv -> Sexpr.Prim (Nrc.Expr.Mul, Sexpr.Col [ partial ], rv)
      in
      Op.NestSum
        { input = joined;
          keys = List.map refresh keys;
          agg_keys = List.map refresh agg_keys;
          aggs = [ (out, value') ];
          presence = presence_right }
    | _ ->
      Op.NestSum
        { input = push_agg unique_keys (Op.Join { left; right; lkey; rkey; kind });
          keys; agg_keys; aggs = [ (out, value) ]; presence })
  | op -> Op.map_children (push_agg unique_keys) op

(* ------------------------------------------------------------------ *)
(* Cogroup fusion (Section 3, Optimization): a Gamma-union with no agg_keys
   directly over a join becomes one cogroup, so the nested object is built
   without the flattened intermediate. Safe when the nest keys contain a
   unique row id ([id%] columns, added by the unnester's AddIndex) and read
   only the left side, with the left join key: each group is then exactly
   one left row. *)

let has_unique_id keys =
  List.exists
    (function _, Sexpr.Col (c :: _) -> String.starts_with ~prefix:"id%" c | _ -> false)
    keys

let rec cogroup (op : Op.t) : Op.t =
  match op with
  | Op.NestBag
      { input = Op.Join { left; right; lkey; rkey; kind };
        keys; agg_keys = []; item; presence; out }
    when has_unique_id keys
         && Sexpr.reads_only (Op.columns left) (List.map snd keys @ lkey) ->
    Op.Cogroup
      { left = cogroup left; right = cogroup right; lkey; rkey; kind;
        keys; item; presence; out }
  | op -> Op.map_children cogroup op

(* ------------------------------------------------------------------ *)

let optimize ?(config = default) (op : Op.t) : Op.t =
  let op = if config.push_selects then push_select op else op in
  let op = if config.push_aggs then push_agg config.unique_keys op else op in
  let op = if config.prune_columns then prune_columns op else op in
  op
