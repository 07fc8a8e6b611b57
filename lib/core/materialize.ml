(** Materialization (Section 4, Figure 5): turn the symbolic dictionaries of
    {!Symbolic} into a sequence of label-free assignments computing flat
    datasets — the top bag plus one flat dictionary per output level.

    Dictionaries are emitted directly in their flat form (label column +
    item columns), so each assignment is an ordinary NRC expression that the
    unnesting stage compiles like any other; per-label [match] loops become
    label joins and localized (per-label) aggregation becomes a global
    aggregation with the label added to the key.

    Domain elimination (Section 4) is applied per symbolic dictionary:

    - {b rule 1}: a dictionary whose body only dereferences its label in an
      existing dictionary is computed by a direct scan of that dictionary;
    - {b rule 2}: a dictionary whose label captures a scalar used only as an
      equality filter is computed from the filtered relation itself, turning
      the captured variable from free to bound.

    The general path and both rules differ only in the generator that
    supplies each label, so all three emit through one builder,
    [dict_expr]. A body's sumBy or dedup (the extensions of Example 6) is
    its [wrap]: peeled off before matching, put back around the flat
    dictionary, with the label prepended to the sumBy keys.

    Output levels that alias an input dictionary (label reuse) are recorded
    in the {!Registry} and cost nothing. *)

module E = Nrc.Expr
module T = Nrc.Types

open Shred_type
open Symbolic

type config = { domain_elimination : bool }

let default = { domain_elimination = true }

type result = {
  assignments : (string * E.t) list; (* in dependency order *)
  top : string;
  dicts : (string list * string) list; (* output dict path -> dataset name *)
}

(* does [e] use variable [y] other than through field projections? *)
let uses_whole y (e : E.t) =
  List.exists
    (fun (v, u) -> v = y && u = Whole)
    (used_paths (SSet.singleton y) e)

let record_fields_of item_ty w =
  match item_ty with
  | T.TTuple fields -> List.map (fun (n, _) -> (n, E.Proj (E.Var w, n))) fields
  | _ ->
    Unnest.unsupported "shredded dictionaries require tuple-valued inner bags"

(* ------------------------------------------------------------------ *)
(* The one dictionary builder *)

(* What a dictionary body wraps around its comprehension: the sumBy/dedup
   extension of Example 6. The builder puts it back around the flat
   dictionary's comprehension. *)
type wrap = Plain | Dedup | Sum of { keys : string list; values : string list }

let unwrap : E.t -> wrap * E.t = function
  | E.SumBy { input; keys; values } -> (Sum { keys; values }, input)
  | E.Dedup input -> (Dedup, input)
  | body -> (Plain, body)

(* [wrap (for x in src union for w in body union sng(<label := label, ...>))]:
   the row carries [w]'s item fields, or the sumBy keys and values *)
let dict_expr wrap ~item_ty ~label (x, src) w body : E.t =
  let fields =
    match wrap with
    | Sum { keys; values } -> List.map (fun k -> (k, E.Proj (E.Var w, k))) (keys @ values)
    | Plain | Dedup -> record_fields_of item_ty w
  in
  let row = E.Singleton (E.Record (("label", label) :: fields)) in
  let comp = E.ForUnion (x, src, E.ForUnion (w, body, row)) in
  match wrap with
  | Plain -> comp
  | Dedup -> E.Dedup comp
  | Sum { keys; values } -> E.SumBy { keys = "label" :: keys; values; input = comp }

(* ------------------------------------------------------------------ *)
(* Domain elimination rule 1: body dereferences only its own label *)

type rule1_shape = { y : string; dict : string; rest : E.t; wrap : wrap }

let match_rule1 (lam : lam) : rule1_shape option =
  match lam.params, unwrap lam.body with
  | [ (p, T.TLabel) ], (wrap, E.ForUnion (y, E.MatLookup (E.Var dict, E.Var p'), rest))
    when p' = p && (not (E.is_free p rest)) && not (uses_whole y rest) ->
    Some { y; dict; rest; wrap }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Domain elimination rule 2: the label captures scalars used as equality
   filters on a generator *)

type rule2_shape = {
  y : string;
  src : E.t;
  key_attrs : string list; (* y attributes equated with params, param order *)
  rest : E.t;
  wrap : wrap; (* never [Dedup] *)
}

let match_rule2 (lam : lam) : rule2_shape option =
  let scalar_params =
    List.for_all (fun (_, t) -> T.is_flat t && t <> T.TLabel) lam.params
  in
  if not scalar_params || lam.params = [] then None
  else begin
    match unwrap lam.body with
    | wrap, E.ForUnion (y, src, E.If (cond, rest, None))
      when wrap <> Dedup
           && List.for_all (fun (p, _) -> not (E.is_free p src)) lam.params
           && List.for_all (fun (p, _) -> not (E.is_free p rest)) lam.params
    -> (
      (* each param must be equated with exactly one y attribute *)
      let eqs = E.conjuncts cond in
      let attr_of p =
        List.find_map
          (function
            | E.Cmp (E.Eq, E.Proj (E.Var y', a), E.Var p') when y' = y && p' = p ->
              Some a
            | E.Cmp (E.Eq, E.Var p', E.Proj (E.Var y', a)) when y' = y && p' = p ->
              Some a
            | _ -> None)
          eqs
      in
      match
        List.map (fun (p, _) -> attr_of p) lam.params
      with
      | attrs when List.for_all Option.is_some attrs
                   && List.length eqs = List.length lam.params ->
        Some { y; src; key_attrs = List.map Option.get attrs; rest; wrap }
      | _ -> None)
    | _ -> None
  end

(* ------------------------------------------------------------------ *)
(* Materialization proper *)

type state = {
  mutable acc : (string * E.t) list; (* reversed assignments *)
  mutable dict_map : (string list * string) list; (* reversed *)
  registry : Registry.t;
  config : config;
  target : string;
}

let emit st name e = st.acc <- (name, e) :: st.acc

(* dictionary expression for a single lambda over a named label domain *)
let general_lam_expr (lam : lam) (dom : string) (item_ty : T.t) : E.t =
  let l = E.fresh ~hint:"l" () in
  let w = E.fresh ~hint:"w" () in
  let label = E.Proj (E.Var l, "label") in
  let wrap, body = unwrap lam.body in
  let body =
    if lam.identity then
      (* the domain labels ARE the captured labels: bind the single
         parameter directly, no site dispatch needed *)
      match lam.params with
      | [ (p, _) ] -> E.subst p label body
      | _ -> assert false
    else E.MatchLabel { label; site = lam.site; params = lam.params; body }
  in
  dict_expr wrap ~item_ty ~label (l, E.Var dom) w body

let rule1_expr ({ y; dict; rest; wrap } : rule1_shape) (item_ty : T.t) : E.t =
  let z = E.fresh ~hint:"z" () in
  let w = E.fresh ~hint:"w" () in
  let body = E.subst y (E.Var z) rest in
  dict_expr wrap ~item_ty ~label:(E.Proj (E.Var z, "label")) (z, E.Var dict) w body

let rule2_expr ~site ({ y; src; key_attrs; rest; wrap } : rule2_shape)
    (item_ty : T.t) : E.t =
  let w = E.fresh ~hint:"w" () in
  let label =
    E.NewLabel { site; args = List.map (fun a -> E.Proj (E.Var y, a)) key_attrs }
  in
  dict_expr wrap ~item_ty ~label (y, src) w rest

(* collect the entries of a dictionary tree, merging unions *)
let rec entries_of (d : dtree) : (string * entry list) list =
  match d with
  | DEmpty -> []
  | DNode entries -> List.map (fun (a, e) -> (a, [ e ])) entries
  | DRef { dataset; path; elem_ty } ->
    List.map
      (fun (a, inner) ->
        ( a,
          [ EAlias (DRef { dataset; path = path @ [ a ]; elem_ty = inner }) ] ))
      (bag_attrs elem_ty)
  | DUnion (d1, d2) ->
    let e1 = entries_of d1 and e2 = entries_of d2 in
    let attrs =
      List.sort_uniq String.compare (List.map fst e1 @ List.map fst e2)
    in
    List.map
      (fun a ->
        ( a,
          (match List.assoc_opt a e1 with Some l -> l | None -> [])
          @ (match List.assoc_opt a e2 with Some l -> l | None -> []) ))
      attrs

(* register aliases for every dictionary reachable below an input subtree *)
let alias_subtree st path (sub : dtree) =
  match sub with
  | DRef { dataset; path = ipath; elem_ty } ->
    List.iter
      (fun p ->
        let resolved = Registry.name st.registry (Dict (dataset, ipath @ p)) in
        Registry.alias st.registry (Dict (st.target, path @ p)) resolved;
        st.dict_map <- (path @ p, resolved) :: st.dict_map)
      (dict_paths elem_ty)
  | _ ->
    Unnest.unsupported "aliased dictionary does not refer to a materialized dataset"

let rec mat_dicts st ~parent path (d : dtree) : unit =
  match entries_of d with
  | [] -> ()
  | entries ->
    List.iter
      (fun (a, es) ->
        let sub_path = path @ [ a ] in
        match es with
        | [ EAlias sub ] ->
          let resolved =
            match sub with
            | DRef { dataset; path = ipath; _ } ->
              Registry.name st.registry (Dict (dataset, ipath))
            | _ ->
              Unnest.unsupported "alias to non-materialized dictionary"
          in
          Registry.alias st.registry (Dict (st.target, sub_path)) resolved;
          st.dict_map <- (sub_path, resolved) :: st.dict_map;
          alias_subtree st sub_path sub
        | es ->
          let lams_entries =
            List.map
              (function
                | ELams { lams; child; item_ty } -> (lams, child, item_ty)
                | EAlias _ ->
                  Unnest.unsupported "cannot union an aliased dictionary with a computed one")
              es
          in
          let item_ty =
            match lams_entries with
            | (_, _, item_ty) :: _ -> item_ty
            | [] -> assert false
          in
          let lams = List.concat_map (fun (lams, _, _) -> lams) lams_entries in
          (* Two pass-through lambdas in one entry could receive the same
             label value with different bodies — ambiguous provenance. A
             single pass-through among site-dispatched lambdas is fine: a
             foreign-site label simply misses in its source dictionary. *)
          if List.length (List.filter (fun l -> l.identity) lams) > 1 then
            Unnest.unsupported "union of dictionaries with pass-through labels is ambiguous";
          let name = Registry.fresh st.registry (Dict (st.target, sub_path)) in
          st.dict_map <- (sub_path, name) :: st.dict_map;
          emit_dict st ~parent ~name ~sub_path ~item_ty lams;
          let child =
            List.fold_left
              (fun acc (_, child, _) -> union_dtree acc child)
              DEmpty lams_entries
          in
          mat_dicts st ~parent:name sub_path child)
      entries

and emit_dict st ~parent ~name ~sub_path ~item_ty (lams : lam list) : unit =
  let attr = List.nth sub_path (List.length sub_path - 1) in
  match lams with
  | [] ->
    let elem =
      match item_ty with
      | T.TTuple fields -> T.TTuple (("label", T.TLabel) :: fields)
      | _ ->
        Unnest.unsupported "shredded dictionaries require tuple-valued inner bags"
    in
    emit st name (E.Empty elem)
  | lams ->
    let eliminated =
      if not st.config.domain_elimination then None
      else
        match lams with
        | [ lam ] -> (
          match match_rule1 lam with
          | Some shape -> Some (rule1_expr shape item_ty)
          | None -> (
            match match_rule2 lam with
            | Some shape -> Some (rule2_expr ~site:lam.site shape item_ty)
            | None -> None))
        | _ -> None
    in
    (match eliminated with
    | Some e -> emit st name e
    | None ->
      (* general path: label domain from the parent, then one per-label loop
         per lambda *)
      let dom = Registry.fresh st.registry (Dom (st.target, sub_path)) in
      let x = E.fresh ~hint:"x" () in
      emit st dom
        (E.Dedup
           (E.ForUnion
              ( x,
                E.Var parent,
                E.Singleton (E.Record [ ("label", E.Proj (E.Var x, attr)) ]) )));
      let exprs = List.map (fun lam -> general_lam_expr lam dom item_ty) lams in
      let union =
        match exprs with
        | [] -> assert false
        | e :: es -> List.fold_left (fun a b -> E.Union (a, b)) e es
      in
      emit st name union)

(* ------------------------------------------------------------------ *)

(** Materialize one shredded assignment. [target] is the assignment variable;
    the registry names its flat top bag and each symbolic dictionary (or
    records the dictionary as an alias). *)
let materialize ?(config = default) ~registry ~target ((eF, dt) : E.t * dtree) :
    result =
  let st = { acc = []; dict_map = []; registry; config; target } in
  let top = Registry.fresh registry (Top target) in
  emit st top eF;
  (match dt with
  | DRef _ -> alias_subtree st [] dt
  | _ -> mat_dicts st ~parent:top [] dt);
  { assignments = List.rev st.acc; top; dicts = List.rev st.dict_map }
