(** The unnesting stage (Section 3): translates an NRC expression into a
    query plan, following the variant of Fegaras and Maier's algorithm
    described in the paper.

    Pipeline inside this module:

    + normalize the expression to monad-comprehension form
      ({!Nrc.Norm.simplify}), then extract a union of comprehensions
      [{ head | quals }];
    + translate qualifiers left-to-right into scans, (outer) joins — with
      equality predicates detected as join keys — and (outer) unnests;
    + translate the head: flat heads become projections; bag-valued
      attributes of tuple heads open a new nesting level with an [AddIndex]
      (the unique ID of the paper), an expanded grouping-attribute set G,
      outer variants of joins and unnests, and a closing Gamma.

    At non-root levels, residual predicates are folded into the presence
    predicate of the closing nest operator rather than becoming selections:
    a filtered-out row must still keep its group alive with an empty bag /
    zero sum, which is exactly the NULL-casting behaviour of Section 2. *)

module E = Nrc.Expr
module T = Nrc.Types
module S = Plan.Sexpr
module Op = Plan.Op

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Comprehension form *)

type source =
  | SInput of string (* named dataset *)
  | SPath of string * string list (* bound variable, field path *)
  | SSub of E.t (* independent subexpression (dedup/aggregate result) *)

type qual =
  | Gen of string * source
  | Pred of E.t
  | BindLabel of { label : E.t; site : int; params : (string * T.t) list }

type comp = { quals : qual list; head : E.t }

(* [comps_of bound e]: decompose a (simplified) bag expression into a union
   of comprehensions. [bound] tracks generator/label-bound variables; free
   variables outside [bound] denote named datasets. *)
let rec comps_of (bound : E.VSet.t) (e : E.t) : comp list =
  match e with
  | E.Singleton h -> [ { quals = []; head = h } ]
  | E.Empty _ -> []
  | E.Union (a, b) -> comps_of bound a @ comps_of bound b
  | E.If (c, b1, None) -> prepend (Pred c) (comps_of bound b1)
  | E.If (c, b1, Some b2) ->
    prepend (Pred c) (comps_of bound b1)
    @ prepend (Pred (E.Not c)) (comps_of bound b2)
  | E.ForUnion (x, src, body) -> gen_of bound x src body
  | E.Var r when not (E.VSet.mem r bound) ->
    let x = E.fresh ~hint:"it" () in
    [ { quals = [ Gen (x, SInput r) ]; head = E.Var x } ]
  | E.Proj _ -> (
    match E.rooted_path e with
    | Some (v, fields) when E.VSet.mem v bound ->
      let x = E.fresh ~hint:"it" () in
      [ { quals = [ Gen (x, SPath (v, fields)) ]; head = E.Var x } ]
    | _ -> unsupported "bag projection not rooted at a bound variable: %a" E.pp e)
  | E.MatchLabel { label; site; params; body } ->
    prepend_all
      [ BindLabel { label; site; params } ]
      (comps_of
         (List.fold_left (fun s (p, _) -> E.VSet.add p s) bound params)
         body)
  | E.SumBy _ | E.GroupBy _ | E.Dedup _ ->
    let x = E.fresh ~hint:"it" () in
    [ { quals = [ Gen (x, SSub e) ]; head = E.Var x } ]
  | _ -> unsupported "cannot normalize bag expression: %a" E.pp e

and prepend q comps = List.map (fun c -> { c with quals = q :: c.quals }) comps

and prepend_all qs comps =
  List.map (fun c -> { c with quals = qs @ c.quals }) comps

and gen_of bound x src body : comp list =
  let continue_with source =
    prepend (Gen (x, source)) (comps_of (E.VSet.add x bound) body)
  in
  match src with
  | E.Var r when not (E.VSet.mem r bound) -> continue_with (SInput r)
  | E.Proj _ -> (
    match E.rooted_path src with
    | Some (v, fields) when E.VSet.mem v bound ->
      continue_with (SPath (v, fields))
    | _ -> unsupported "generator over unrooted projection: %a" E.pp src)
  | E.SumBy _ | E.GroupBy _ | E.Dedup _ -> continue_with (SSub src)
  | E.MatLookup (E.Var d, lbl) when not (E.VSet.mem d bound) ->
    (* for x in MatLookup(D, l) union body: scan the flat dictionary and
       filter on its label column; x's field projections remain valid on the
       full row (Section 4, MatLookup translates to a join) *)
    let row = E.fresh ~hint:"row" () in
    let pred = E.Cmp (E.Eq, E.Proj (E.Var row, "label"), lbl) in
    let body' = E.subst x (E.Var row) body in
    prepend_all
      [ Gen (row, SInput d); Pred pred ]
      (comps_of (E.VSet.add row bound) body')
  | E.MatLookup _ ->
    unsupported "MatLookup source must be a named dictionary: %a" E.pp src
  | E.Empty _ -> []
  | E.MatchLabel { label; site; params; body = inner } ->
    (* for x in (match l = L(p) then inner) union body *)
    prepend_all
      [ BindLabel { label; site; params } ]
      (gen_of
         (List.fold_left (fun s (p, _) -> E.VSet.add p s) bound params)
         x inner body)
  | E.Union (s1, s2) ->
    gen_of bound x s1 body @ gen_of bound x s2 body
  | E.Singleton s1 ->
    (* substitution can create new projection/generator redexes *)
    comps_of bound (Nrc.Norm.simplify (E.subst x s1 body))
  | E.ForUnion (y, s1, b1) ->
    (* associativity; freshen y if it would capture in body *)
    let y', b1' =
      if E.is_free y body then begin
        let y' = E.fresh ~hint:y () in
        (y', E.subst y (E.Var y') b1)
      end
      else (y, b1)
    in
    comps_of bound (E.ForUnion (y', s1, E.ForUnion (x, b1', body)))
  | E.If (c, s1, None) ->
    prepend (Pred c) (gen_of bound x s1 body)
  | _ -> unsupported "unsupported generator source: %a" E.pp src

(* ------------------------------------------------------------------ *)
(* Scalar expression compilation *)

let rec compile_sexpr (e : E.t) : S.t =
  match e with
  | E.Const c -> S.Const (E.const_value c)
  | E.Var x -> S.Col [ x ]
  | E.Proj (E.Record fields, a) -> (
    (* residual beta-redex from substitution *)
    match List.assoc_opt a fields with
    | Some inner -> compile_sexpr inner
    | None -> unsupported "projection %s missing from record" a)
  | E.Proj _ -> (
    match E.rooted_path e with
    | Some (v, fields) -> S.Col (v :: fields)
    | None -> unsupported "projection not rooted at a variable: %a" E.pp e)
  | E.Prim (op, a, b) -> S.Prim (op, compile_sexpr a, compile_sexpr b)
  | E.Cmp (op, a, b) -> S.Cmp (op, compile_sexpr a, compile_sexpr b)
  | E.Logic (op, a, b) -> S.Logic (op, compile_sexpr a, compile_sexpr b)
  | E.Not a -> S.Not (compile_sexpr a)
  | E.NewLabel { site; args } ->
    S.MkLabel { site; args = List.map compile_sexpr args }
  | E.Record fields ->
    S.MkTuple (List.map (fun (n, x) -> (n, compile_sexpr x)) fields)
  | E.If (c, a, Some b) ->
    (* scalar conditional: encode as presence-free case split is not
       available in the plan sexprs; supported only for boolean scalars *)
    S.Logic
      ( E.Or,
        S.Logic (E.And, compile_sexpr c, compile_sexpr a),
        S.Logic (E.And, S.Not (compile_sexpr c), compile_sexpr b) )
  | _ -> unsupported "not a flat scalar expression: %a" E.pp e

(* ------------------------------------------------------------------ *)
(* Typing helpers: generator environments *)

type tenv = (string * T.t) list

let infer (tenv : tenv) (e : E.t) : T.t =
  Nrc.Typecheck.infer (Nrc.Typecheck.env_of_list tenv) e

let is_bag_expr tenv e =
  match infer tenv e with T.TBag _ -> true | _ -> false

(* Field accessor over a head expression *)
let head_field (head : E.t) (field : string) : E.t =
  match head with
  | E.Record fields -> (
    match List.assoc_opt field fields with
    | Some e -> e
    | None -> unsupported "head has no attribute %s" field)
  | E.Var x -> E.Proj (E.Var x, field)
  | _ -> unsupported "cannot project attribute %s from head %a" field E.pp head

let head_fields tenv (head : E.t) : (string * E.t) list =
  match head with
  | E.Record fields -> fields
  | E.Var _ | E.Proj _ -> (
    match infer tenv head with
    | T.TTuple fields -> List.map (fun (n, _) -> (n, head_field head n)) fields
    | _ -> unsupported "head %a is not a tuple" E.pp head)
  | _ -> unsupported "cannot enumerate fields of head %a" E.pp head

let fresh_id () = E.fresh ~hint:"id" ()

(* Split head record fields into scalar-valued and bag-valued ones. Only
   Record heads are decomposed; Var/Proj heads pass whole values through. *)
let split_head_fields tenv genv head =
  match head with
  | E.Record fields ->
    Some (List.partition (fun (_, e) -> not (is_bag_expr (tenv @ genv) e)) fields)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Qualifier, head and level compilation *)

type quals_result = {
  plan : Op.t;
  genv : tenv; (* generator variables and their element types *)
  presence_parts : S.t list; (* outer mode: residual predicates + witnesses *)
}

let conj = function
  | [] -> S.Const (Nrc.Value.Bool true)
  | p :: ps -> List.fold_left (fun a b -> S.Logic (E.And, a, b)) p ps

(* split a predicate into equality conjuncts usable as join keys between the
   existing columns [have] and the new binder [x], plus a residual *)
let rec split_join_preds have x (e : E.t) : (S.t * S.t) list * E.t list =
  match e with
  | E.Logic (E.And, a, b) ->
    let k1, r1 = split_join_preds have x a in
    let k2, r2 = split_join_preds have x b in
    (k1 @ k2, r1 @ r2)
  | E.Cmp (E.Eq, a, b) ->
    let fv_in vars ex = E.VSet.subset (E.free_vars ex) vars in
    let have_set = E.VSet.of_list have in
    let xset = E.VSet.singleton x in
    if fv_in have_set a && fv_in xset b then
      ([ (compile_sexpr a, compile_sexpr b) ], [])
    else if fv_in have_set b && fv_in xset a then
      ([ (compile_sexpr b, compile_sexpr a) ], [])
    else ([], [ e ])
  | _ -> ([], [ e ])

(* Is this predicate evaluable given the bound variables? *)
let pred_ready bound (e : E.t) =
  E.VSet.subset (E.free_vars e) (E.VSet.of_list bound)

let rec compile_quals ~outer ~tenv (start : (Op.t * tenv) option)
    (quals : qual list) : quals_result =
  let plan, genv =
    match start with Some (p, g) -> (Some p, g) | None -> (None, [])
  in
  let presence = ref [] in
  let bound_cols g = List.map fst g in
  let rec go plan genv quals =
    match quals with
    | [] -> (plan, genv)
    | Gen (x, src) :: rest ->
      let x_ty, right_plan =
        match src with
        | SInput r -> (
          match List.assoc_opt r tenv with
          | Some (T.TBag elem) -> (elem, Op.Scan { input = r; binder = x })
          | Some t ->
            unsupported "input %s is not a bag (type %a)" r T.pp t
          | None -> unsupported "unknown input %s" r)
        | SPath (v, fields) -> (
          match List.assoc_opt v genv with
          | None -> unsupported "generator path over unbound variable %s" v
          | Some vt ->
            let t = List.fold_left T.field vt fields in
            (match t with
            | T.TBag elem -> (elem, Op.Nil []) (* placeholder, handled below *)
            | _ -> unsupported "path %s.%s is not a bag" v (String.concat "." fields)))
        | SSub sub ->
          let fv = E.free_vars sub in
          let bound_gen = E.VSet.of_list (bound_cols genv) in
          if not (E.VSet.is_empty (E.VSet.inter fv bound_gen)) then
            unsupported "correlated subquery generator: %a" E.pp sub;
          let sub_ty =
            match infer tenv sub with
            | T.TBag elem -> elem
            | t -> unsupported "subquery is not a bag: %a" T.pp t
          in
          let p = translate_bag ~tenv sub in
          let p =
            match Op.columns p with
            | [ c ] when c = x -> p
            | [ c ] -> Op.Project ([ (x, S.Col [ c ]) ], p)
            | cols ->
              Op.Project
                ([ (x, S.MkTuple (List.map (fun c -> (c, S.Col [ c ])) cols)) ], p)
          in
          (sub_ty, p)
      in
      let genv' = genv @ [ (x, x_ty) ] in
      (match src, plan with
      | SPath (v, fields), Some p ->
        if outer then presence := S.Not (S.IsNull (S.Col [ x ])) :: !presence;
        go
          (Some (Op.Unnest { input = p; path = v :: fields; binder = x; outer; drop = false }))
          genv' rest
      | SPath (v, _), None ->
        unsupported "unnest of %s.* with no enclosing plan" v
      | (SInput _ | SSub _), None -> go (Some right_plan) genv' rest
      | (SInput _ | SSub _), Some p ->
        (* extract equality predicates linking x to existing columns *)
        let have = bound_cols genv in
        let keys = ref [] in
        let rest' =
          List.concat_map
            (fun q ->
              match q with
              | Pred c when pred_ready (x :: have) c ->
                let ks, residual = split_join_preds have x c in
                keys := !keys @ ks;
                List.map (fun r -> Pred r) residual
              | q -> [ q ])
            rest
        in
        if outer then presence := S.Not (S.IsNull (S.Col [ x ])) :: !presence;
        let joined =
          match !keys with
          | [] ->
            if outer then
              Op.Join
                { left = p; right = right_plan;
                  lkey = [ S.Const (Nrc.Value.Int 1) ];
                  rkey = [ S.Const (Nrc.Value.Int 1) ];
                  kind = Op.LeftOuter }
            else Op.Product (p, right_plan)
          | ks ->
            Op.Join
              { left = p; right = right_plan;
                lkey = List.map fst ks;
                rkey = List.map snd ks;
                kind = (if outer then Op.LeftOuter else Op.Inner) }
        in
        go (Some joined) genv' rest')
    | Pred c :: rest ->
      if not (pred_ready (bound_cols genv) c) then
        unsupported "predicate %a references unbound variables" E.pp c;
      let s = compile_sexpr c in
      if outer then begin
        presence := s :: !presence;
        go plan genv rest
      end
      else begin
        match plan with
        | Some p -> go (Some (Op.Select (s, p))) genv rest
        | None -> (
          (* constant predicate before any generator: defer via UnitRow *)
          match rest with
          | [] -> (Some (Op.Select (s, Op.UnitRow)), genv)
          | _ ->
            let plan', genv' = go plan genv rest in
            (match plan' with
            | Some p -> (Some (Op.Select (s, p)), genv')
            | None -> (Some (Op.Select (s, Op.UnitRow)), genv')))
      end
    | BindLabel { label; site; params } :: rest ->
      let p =
        match plan with
        | Some p -> p
        | None -> unsupported "label match with no enclosing plan"
      in
      let lbl = compile_sexpr label in
      let passthrough =
        List.map (fun c -> (c, S.Col [ c ])) (Op.columns p)
      in
      let bindings =
        List.mapi (fun i (prm, _) -> (prm, S.LabelArg (lbl, i))) params
      in
      let projected = Op.Project (passthrough @ bindings, p) in
      let guard = S.IsLabelSite (lbl, site) in
      let p' =
        if outer then begin
          presence := guard :: !presence;
          projected
        end
        else Op.Select (guard, projected)
      in
      go (Some p') (genv @ List.map (fun (prm, t) -> (prm, t)) params) rest
  in
  let plan, genv = go plan genv quals in
  match plan with
  | Some p -> { plan = p; genv; presence_parts = List.rev !presence }
  | None -> { plan = Op.UnitRow; genv; presence_parts = List.rev !presence }

and translate_bag ~tenv (e : E.t) : Op.t =
  match e with
  | E.SumBy { input; keys; values } ->
    translate_agg ~tenv ~start:None input (fun r hf ->
        Op.NestSum
          { input = r.plan;
            keys = [];
            agg_keys = List.map (fun k -> (k, hf k)) keys;
            aggs = List.map (fun v -> (v, hf v)) values;
            presence = conj r.presence_parts })
  | E.GroupBy { input; keys; group_attr } ->
    translate_agg ~tenv ~start:None input (fun r hf ->
        let rest =
          rest_fields ~tenv r input keys
        in
        Op.NestBag
          { input = r.plan;
            keys = [];
            agg_keys = List.map (fun k -> (k, hf k)) keys;
            item = S.MkTuple (List.map (fun f -> (f, hf f)) rest);
            presence = conj r.presence_parts;
            out = group_attr })
  | E.Dedup inner -> Op.Dedup (translate_bag ~tenv (Nrc.Norm.simplify inner))
  | E.Union (a, b) ->
    Op.UnionAll (translate_bag ~tenv a, translate_bag ~tenv b)
  | E.Empty _ -> Op.Nil [ "item" ]
  | _ ->
    let comps = comps_of E.VSet.empty e in
    let plans = List.map (compile_comp_root ~tenv) comps in
    (match plans with
    | [] -> Op.Nil [ "item" ]
    | [ p ] -> p
    | p :: ps -> List.fold_left (fun a b -> Op.UnionAll (a, b)) p ps)

(* the non-key attributes of the head of an aggregate input *)
and rest_fields ~tenv r input keys =
  match comps_of (E.VSet.of_list (List.map fst r.genv)) input with
  | c :: _ ->
    let fields = head_fields (tenv @ r.genv) c.head in
    List.filter_map (fun (n, _) -> if List.mem n keys then None else Some n) fields
  | [] -> unsupported "groupBy over an empty union"

(* Compile an aggregate input; [finish] receives the compiled qualifiers
   and a head-field accessor. A union of comprehensions at the root is
   compiled branch-per-branch, aligned by projection, and aggregated once
   over the union. *)
and translate_agg ~tenv ~start input finish =
  match comps_of (E.VSet.of_list (List.map fst (match start with Some (_, ge) -> ge | None -> []))) input with
  | [ c ] ->
    let outer = Option.is_some start in
    let r = compile_quals ~outer ~tenv start c.quals in
    let hf field =
      match c.head with
      | E.Var x when not (List.mem_assoc x r.genv) ->
        unsupported "aggregate head variable %s unbound" x
      | _ -> compile_sexpr (head_field c.head field)
    in
    finish r hf
  | [] -> Op.Nil [ "item" ]
  | c0 :: _ as comps when start = None ->
    (* aggregate over a union at the root: project each branch to the head
       fields, union, aggregate the union *)
    let r0 = compile_quals ~outer:false ~tenv None c0.quals in
    let field_names = List.map fst (head_fields (tenv @ r0.genv) c0.head) in
    let branch (c : comp) =
      let r = compile_quals ~outer:false ~tenv None c.quals in
      Op.Project
        ( List.map (fun f -> (f, compile_sexpr (head_field c.head f))) field_names,
          r.plan )
    in
    let unioned =
      match List.map branch comps with
      | [] -> assert false
      | p :: ps -> List.fold_left (fun a b -> Op.UnionAll (a, b)) p ps
    in
    finish
      { plan = unioned; genv = []; presence_parts = [] }
      (fun field -> S.Col [ field ])
  | _ -> unsupported "aggregate over a union inside a nested attribute"

and compile_comp_root ~tenv (c : comp) : Op.t =
  let r = compile_quals ~outer:false ~tenv None c.quals in
  match split_head_fields tenv r.genv c.head with
  | None -> Op.Project ([ ("item", compile_sexpr c.head) ], r.plan)
  | Some (fields, []) ->
    Op.Project (List.map (fun (n, e) -> (n, compile_sexpr e)) fields, r.plan)
  | Some (scalars, bags) ->
    let id = fresh_id () in
    let plan1 = Op.AddIndex { input = r.plan; col = id } in
    let g =
      (id, S.Col [ id ])
      :: List.map (fun (n, e) -> (n, compile_sexpr e)) scalars
    in
    let plan2 = compile_bag_fields ~tenv ~genv:r.genv ~g plan1 bags in
    (* drop the index, keep declared field order *)
    let out_fields =
      List.map
        (fun (n, _) -> (n, S.Col [ n ]))
        (head_fields (tenv @ r.genv) c.head)
    in
    Op.Project (out_fields, plan2)

(* Compile the bag-valued attributes of one nesting level, sequentially.
   [g] is the grouping-attribute set for this level (including the unique
   id); each field closes with its Gamma whose keys are [g] (refreshed to
   column references after the first nest). Returns a plan whose columns are
   the [g] names plus one column per bag field. *)
and compile_bag_fields ~tenv ~genv ~g plan bags : Op.t =
  match bags with
  | [] -> plan
  | [ (name, bexpr) ] -> compile_bag_field ~tenv ~genv ~g plan name bexpr
  | (name, bexpr) :: rest ->
    (* Multiple bag-valued attributes at one level: close the first field's
       Gamma with a grouping set extended by the generator variables the
       remaining fields still reference — whole tuple columns group safely
       because the unique id is already among the keys. Later fields then
       compile against the nested result (one row per group), carrying the
       earlier bag columns through subsequent Gammas as additional keys. *)
    let rest_vars =
      let fv =
        List.fold_left
          (fun acc (_, e) -> E.VSet.union acc (E.free_vars e))
          E.VSet.empty rest
      in
      List.filter
        (fun (v, _) -> E.VSet.mem v fv && not (List.mem_assoc v g))
        genv
    in
    let g_ext = g @ List.map (fun (v, _) -> (v, S.Col [ v ])) rest_vars in
    let plan' = compile_bag_field ~tenv ~genv ~g:g_ext plan name bexpr in
    (* after the nest: columns are the g_ext names plus [name]; keep the
       fresh bag column as a key of the following fields' Gammas *)
    let g_next =
      List.map (fun (n, _) -> (n, S.Col [ n ])) g_ext
      @ [ (name, S.Col [ name ]) ]
    in
    let genv_next =
      List.filter (fun (v, _) -> List.mem_assoc v rest_vars) genv
    in
    compile_bag_fields ~tenv ~genv:genv_next ~g:g_next plan' rest

and compile_bag_field ~tenv ~genv ~g plan out (bexpr : E.t) : Op.t =
  let refreshed = List.map (fun (n, _) -> (n, S.Col [ n ])) g in
  match bexpr with
  (* shortcut: copying an existing bag column (or a path into one) *)
  | E.Proj _ when E.rooted_path bexpr <> None ->
    let v, fields = Option.get (E.rooted_path bexpr) in
    if List.mem_assoc v genv then
      Op.Project
        (List.map (fun (n, e) -> (n, e)) g @ [ (out, S.Col (v :: fields)) ], plan)
    else unsupported "bag field path on unbound %s" v
  | E.Empty _ ->
    Op.Project (g @ [ (out, S.Const (Nrc.Value.Bag [])) ], plan)
  | E.SumBy { input; keys; values } ->
    translate_agg ~tenv ~start:(Some (plan, genv)) input (fun r hf ->
        let nest1 =
          Op.NestSum
            { input = r.plan;
              keys = g;
              agg_keys = List.map (fun k -> (k, hf k)) keys;
              aggs = List.map (fun v -> (v, hf v)) values;
              presence = conj r.presence_parts }
        in
        let first_key = List.hd keys in
        Op.NestBag
          { input = nest1;
            keys = refreshed;
            agg_keys = [];
            item =
              S.MkTuple
                (List.map (fun k -> (k, S.Col [ k ])) keys
                @ List.map (fun v -> (v, S.Col [ v ])) values);
            presence = S.Not (S.IsNull (S.Col [ first_key ]));
            out })
  | E.GroupBy { input; keys; group_attr } ->
    translate_agg ~tenv ~start:(Some (plan, genv)) input (fun r hf ->
        let rest = rest_fields ~tenv r input keys in
        let nest1 =
          Op.NestBag
            { input = r.plan;
              keys = g;
              agg_keys = List.map (fun k -> (k, hf k)) keys;
              item = S.MkTuple (List.map (fun f -> (f, hf f)) rest);
              presence = conj r.presence_parts;
              out = group_attr }
        in
        let first_key = List.hd keys in
        Op.NestBag
          { input = nest1;
            keys = refreshed;
            agg_keys = [];
            item =
              S.MkTuple
                (List.map (fun k -> (k, S.Col [ k ])) keys
                @ [ (group_attr, S.Col [ group_attr ]) ]);
            presence = S.Not (S.IsNull (S.Col [ first_key ]));
            out })
  | _ -> (
    match comps_of (E.VSet.of_list (List.map fst genv)) bexpr with
    | [] -> Op.Project (g @ [ (out, S.Const (Nrc.Value.Bag [])) ], plan)
    | [ c ] -> compile_level_comp ~tenv ~genv ~g ~refreshed plan out c
    | _ -> unsupported "union inside a nested bag attribute")

(* one comprehension producing the items of a nested bag attribute *)
and compile_level_comp ~tenv ~genv ~g ~refreshed plan out (c : comp) : Op.t =
  let r = compile_quals ~outer:true ~tenv (Some (plan, genv)) c.quals in
  let presence = conj r.presence_parts in
  match split_head_fields tenv r.genv c.head with
  | None ->
    Op.NestBag
      { input = r.plan; keys = g; agg_keys = [];
        item = compile_sexpr c.head; presence; out }
  | Some (fields, []) ->
    let item = S.MkTuple (List.map (fun (n, e) -> (n, compile_sexpr e)) fields) in
    Op.NestBag
      { input = r.plan; keys = g; agg_keys = []; item; presence; out }
  | Some (scalars, bags) ->
    (* a deeper nesting level *)
    let id = fresh_id () in
    let pres_col = E.fresh ~hint:"present" () in
    let plan1 = Op.AddIndex { input = r.plan; col = id } in
    let g' =
      g
      @ [ (id, S.Col [ id ]); (pres_col, presence) ]
      @ List.map (fun (n, e) -> (n, compile_sexpr e)) scalars
    in
    let plan2 = compile_bag_fields ~tenv ~genv:r.genv ~g:g' plan1 bags in
    let field_order = head_fields (tenv @ r.genv) c.head in
    Op.NestBag
      { input = plan2;
        keys = refreshed;
        agg_keys = [];
        item =
          S.MkTuple (List.map (fun (n, _) -> (n, S.Col [ n ])) field_order);
        presence = S.Col [ pres_col ];
        out }

(* ------------------------------------------------------------------ *)
(* Entry points *)

(** Translate a bag-typed NRC expression to a plan. [tenv] gives the types of
    named datasets (program inputs and previously assigned variables). *)
let translate ~(tenv : (string * T.t) list) (e : E.t) : Op.t =
  translate_bag ~tenv (Nrc.Norm.simplify e)

(** Translate every assignment of a program; the type environment grows with
    each assignment. Returns the per-assignment plans in order. *)
let translate_program (p : Nrc.Program.t) : (string * Op.t) list =
  let _, rev =
    List.fold_left
      (fun (tenv, acc) { Nrc.Program.target; body } ->
        let plan = translate ~tenv body in
        let ty = infer tenv body in
        ((target, ty) :: tenv, (target, plan) :: acc))
      (p.Nrc.Program.inputs, [])
      p.Nrc.Program.assignments
  in
  List.rev rev
