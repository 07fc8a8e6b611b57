(** Symbolic query shredding (Section 4, Figure 4): the mutually recursive
    translation F / D from a source NRC expression to (a) a flat expression
    computing the top-level bag with labels in place of inner collections and
    (b) a dictionary tree describing how each label dereferences.

    Dictionary trees are kept as a structured OCaml value rather than
    lambda-bearing expressions: the paper's [let varD := D(e1) in ...]
    bindings are resolved eagerly through an environment, and a lookup in the
    dictionary of an already-materialized dataset becomes [MatLookup] on its
    named flat dictionary immediately. This fuses the normalization step of
    Figure 5 (line 3) into the translation; the semantics is that of [28]
    extended with aggregation, as in the paper.

    The label refinement of Section 4 is implemented: a [NewLabel] captures
    only the attribute paths of free variables actually used by the
    dictionary body, not whole variables. *)

module E = Nrc.Expr
module T = Nrc.Types

open Shred_type

(* ------------------------------------------------------------------ *)
(* Dictionary trees *)

type dtree =
  | DEmpty  (** scalar / flat contents: no dictionaries *)
  | DNode of (string * entry) list
      (** one entry per bag-valued attribute of a tuple *)
  | DRef of { dataset : string; path : string list; elem_ty : T.t }
      (** the dictionaries of an already-materialized dataset at an attribute
          path; [elem_ty] is the original (nested) element type there *)
  | DUnion of dtree * dtree

and entry =
  | EAlias of dtree
      (** the output dictionary is exactly an existing one (label reuse) *)
  | ELams of { lams : lam list; child : dtree; item_ty : T.t }
      (** symbolic dictionary: one lambda per label site flowing into this
          attribute; [item_ty] is the flat type of the dictionary's items *)

and lam = {
  site : int;
  params : (string * T.t) list; (* captured values, in label-argument order *)
  body : E.t; (* flat bag expression over params + datasets *)
  identity : bool;
      (* the label is exactly the single captured label (the Section 4
         refinement collapsed to identity): the F side passes the inner
         label through unchanged instead of wrapping it *)
}

let unsupported = Unnest.unsupported

(* ------------------------------------------------------------------ *)
(* Context *)

type ctx = {
  dtenv : (string * T.t) list; (* original types of named datasets *)
  ftenv : (string * T.t) list; (* flat types of generator variables *)
  denv : (string * dtree) list; (* dictionary trees of generator variables *)
  registry : Registry.t;
}

let bind ctx x fty d =
  { ctx with ftenv = (x, fty) :: ctx.ftenv; denv = (x, d) :: ctx.denv }

let flat_type_of ctx (e : E.t) : T.t =
  Nrc.Typecheck.infer
    (Nrc.Typecheck.env_of_list
       (ctx.ftenv
       @ List.concat_map (fun (name, ty) -> Registry.datasets ctx.registry name ty) ctx.dtenv))
    e

(* the dictionary subtree for elements of the bag attribute [a] *)
let rec child_of ctx (d : dtree) (a : string) : dtree =
  match d with
  | DRef { dataset; path; elem_ty } -> (
    match elem_at elem_ty [ a ] with
    | inner -> DRef { dataset; path = path @ [ a ]; elem_ty = inner })
  | DNode entries -> (
    match List.assoc_opt a entries with
    | Some (EAlias t) -> t
    | Some (ELams { child; _ }) -> child
    | None -> unsupported "no dictionary entry for attribute %s" a)
  | DUnion (d1, d2) -> DUnion (child_of ctx d1 a, child_of ctx d2 a)
  | DEmpty -> unsupported "navigating attribute %s of an empty dictionary tree" a

(* the named dataset holding the dictionary for attribute [a] under [d];
   only resolvable for already-materialized dictionaries *)
let rec dict_dataset_of ctx (d : dtree) (a : string) : string =
  match d with
  | DRef { dataset; path; _ } -> Registry.name ctx.registry (Dict (dataset, path @ [ a ]))
  | DNode entries -> (
    match List.assoc_opt a entries with
    | Some (EAlias sub) -> dict_dataset_root ctx sub
    | _ ->
      unsupported
        "dictionary lookup on a not-yet-materialized dictionary (attribute %s); \
         normalize the query or split it into assignments"
        a)
  | DUnion _ -> unsupported "dictionary lookup through a union dictionary"
  | DEmpty -> unsupported "dictionary lookup on empty tree"

and dict_dataset_root ctx = function
  | DRef { dataset; path; _ } -> Registry.name ctx.registry (Dict (dataset, path))
  | _ -> unsupported "alias to a non-materialized dictionary"

(* ------------------------------------------------------------------ *)
(* Captured-path analysis: the refinement of Section 4 — labels capture only
   the used attribute paths of free generator variables. *)

module SSet = Set.Make (String)

type use = Whole | Attrs of SSet.t

let add_use m v u =
  let cur = Option.value (List.assoc_opt v !m) ~default:(Attrs SSet.empty) in
  let joined =
    match cur, u with
    | Whole, _ | _, Whole -> Whole
    | Attrs a, Attrs b -> Attrs (SSet.union a b)
  in
  m := (v, joined) :: List.remove_assoc v !m

let used_paths (bound : SSet.t) (e : E.t) : (string * use) list =
  let acc = ref [] in
  let rec go e =
    match e with
    | E.Proj (E.Var v, a) when SSet.mem v bound ->
      add_use acc v (Attrs (SSet.singleton a))
    | E.Var v when SSet.mem v bound -> add_use acc v Whole
    | E.ForUnion (x, e1, e2) ->
      go e1;
      if SSet.mem x bound then () else go e2
      (* shadowing of bound names cannot occur: generated names are fresh *)
    | _ ->
      ignore
        (E.map_children
           (fun sub ->
             go sub;
             sub)
           e)
  in
  go e;
  !acc

(* replace occurrences of [Proj (Var v, a)] by [e'] *)
let subst_path v a e' (e : E.t) : E.t =
  let rec go e =
    match e with
    | E.Proj (E.Var v', a') when v' = v && a' = a -> e'
    | E.ForUnion (x, e1, e2) when x = v -> E.ForUnion (x, go e1, e2)
    | E.Let (x, e1, e2) when x = v -> E.Let (x, go e1, e2)
    | _ -> E.map_children go e
  in
  go e

(* Close [body] over the used attribute paths of the generator variables
   in scope, sorted by variable: path [i] becomes parameter [param i].
   Returns the captured paths with their flat types, the parameters and the
   closed body. With [~flat], a non-flat capture is rejected before
   anything is substituted. *)
let capture ctx ~flat ~param (body : E.t) =
  let usage = used_paths (SSet.of_list (List.map fst ctx.ftenv)) body in
  let captures =
    List.concat_map
      (fun (v, u) ->
        let vty = List.assoc v ctx.ftenv in
        match u with
        | Whole -> [ (E.Var v, vty) ]
        | Attrs attrs ->
          List.map
            (fun a -> (E.Proj (E.Var v, a), T.field vty a))
            (SSet.elements attrs))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) usage)
  in
  if flat then
    List.iter
      (fun (_, t) ->
        if not (T.is_flat t) then
          unsupported "label would capture a non-flat value of type %a" T.pp t)
      captures;
  let params = List.mapi (fun i (_, t) -> (param i, t)) captures in
  let closed =
    List.fold_left2
      (fun b (path_expr, _) (p, _) ->
        match path_expr with
        | E.Var v -> E.subst v (E.Var p) b
        | E.Proj (E.Var v, a) -> subst_path v a (E.Var p) b
        | _ -> assert false)
      body captures params
  in
  (captures, params, closed)

(** Build the label for a dictionary body: returns the [NewLabel] expression
    (to embed in F) and the lambda closing the body over the captured
    values. *)
let close_body ctx ~site (body : E.t) : E.t * lam =
  let captures, params, body =
    capture ctx ~flat:true ~param:(Printf.sprintf "cap%%%d_%d" site) body
  in
  match captures with
  | [ (path_expr, T.TLabel) ] ->
    (* single label capture: the new label would be a bijective wrapper
       around the inner label — use the inner label itself, which is what
       makes rule-1 domain elimination (Example 6) produce dictionaries
       keyed consistently with the top bag *)
    (path_expr, { site; params; body; identity = true })
  | _ ->
    let label = E.NewLabel { site; args = List.map fst captures } in
    (label, { site; params; body; identity = false })

(* ------------------------------------------------------------------ *)
(* F / D translation *)

let rec shred (ctx : ctx) (e : E.t) : E.t * dtree =
  match e with
  | E.Const _ -> (e, DEmpty)
  | E.Var x -> (
    match List.assoc_opt x ctx.denv with
    | Some d -> (E.Var x, d)
    | None -> (
      (* a named dataset *)
      match List.assoc_opt x ctx.dtenv with
      | Some (T.TBag elem) ->
        (E.Var (Registry.name ctx.registry (Top x)), DRef { dataset = x; path = []; elem_ty = elem })
      | Some _ -> (E.Var x, DEmpty)
      | None -> unsupported "unbound variable %s" x))
  | E.Proj (e1, a) -> (
    let e1F, d1 = shred ctx e1 in
    (* bag-valued iff the dictionary tree knows the attribute *)
    match attr_kind ctx d1 a with
    | `Bag ->
      let dict = dict_dataset_of ctx d1 a in
      (E.MatLookup (E.Var dict, E.Proj (e1F, a)), child_of ctx d1 a)
    | `Scalar -> (E.Proj (e1F, a), DEmpty))
  | E.Record fields ->
    let fF, entries =
      List.fold_left
        (fun (accF, accE) (n, ei) ->
          match field_shred ctx ei with
          | `Scalar eF -> ((n, eF) :: accF, accE)
          | `Label (labelE, entry) -> ((n, labelE) :: accF, (n, entry) :: accE))
        ([], []) fields
    in
    ( E.Record (List.rev fF),
      match entries with [] -> DEmpty | es -> DNode (List.rev es) )
  | E.Empty elem ->
    (E.Empty (flat_of elem), dtree_of_empty elem)
  | E.Singleton e1 ->
    let e1F, d1 = shred ctx e1 in
    (E.Singleton e1F, d1)
  | E.Get e1 ->
    let e1F, d1 = shred ctx e1 in
    (E.Get e1F, d1)
  | E.ForUnion (x, e1, e2) ->
    let e1F, d1 = shred ctx e1 in
    let elem_fty =
      match flat_type_of ctx e1F with
      | T.TBag t -> t
      | t -> unsupported "generator over non-bag of type %a" T.pp t
    in
    let ctx' = bind ctx x elem_fty d1 in
    let e2F, d2 = shred ctx' e2 in
    (E.ForUnion (x, e1F, e2F), d2)
  | E.Union (e1, e2) ->
    let e1F, d1 = shred ctx e1 in
    let e2F, d2 = shred ctx e2 in
    (E.Union (e1F, e2F), union_dtree d1 d2)
  | E.Let (x, e1, e2) ->
    let e1F, d1 = shred ctx e1 in
    let fty = flat_type_of ctx e1F in
    let ctx' = bind ctx x fty d1 in
    let e2F, d2 = shred ctx' e2 in
    (E.Let (x, e1F, e2F), d2)
  | E.Prim (op, a, b) -> (E.Prim (op, fst (shred ctx a), fst (shred ctx b)), DEmpty)
  | E.Cmp (op, a, b) -> (E.Cmp (op, fst (shred ctx a), fst (shred ctx b)), DEmpty)
  | E.Logic (op, a, b) ->
    (E.Logic (op, fst (shred ctx a), fst (shred ctx b)), DEmpty)
  | E.Not a -> (E.Not (fst (shred ctx a)), DEmpty)
  | E.If (c, e1, e2opt) ->
    let cF, _ = shred ctx c in
    let e1F, d1 = shred ctx e1 in
    (match e2opt with
    | None -> (E.If (cF, e1F, None), d1)
    | Some e2 ->
      let e2F, d2 = shred ctx e2 in
      (E.If (cF, e1F, Some e2F), union_dtree d1 d2))
  | E.Dedup e1 ->
    (* dedup input is a flat bag: shredding is the identity on contents *)
    let e1F, _ = shred ctx e1 in
    (E.Dedup e1F, DEmpty)
  | E.SumBy { input; keys; values } ->
    (* keys and values are flat: the aggregate applies to the flat bag *)
    let inF, _ = shred ctx input in
    (E.SumBy { input = inF; keys; values }, DEmpty)
  | E.GroupBy { input; keys; group_attr } ->
    shred_groupby ctx ~input ~keys ~group_attr
  | E.NewLabel _ | E.MatchLabel _ | E.MatLookup _ ->
    unsupported "source expression already contains shredding constructs"

(* how does attribute [a] of a value described by [d] behave? *)
and attr_kind ctx (d : dtree) a =
  match d with
  | DEmpty -> `Scalar
  | DNode entries -> if List.mem_assoc a entries then `Bag else `Scalar
  | DRef { elem_ty; _ } -> (
    match elem_ty with
    | T.TTuple fields -> (
      match List.assoc_opt a fields with
      | Some (T.TBag _) -> `Bag
      | _ -> `Scalar)
    | _ -> `Scalar)
  | DUnion (d1, _) -> attr_kind ctx d1 a

(* shred one tuple-constructor field (Figure 4, lines 3-4 + label reuse) *)
and field_shred ctx (ei : E.t) =
  match shred_field_kind ctx ei with
  | `Scalar ->
    let eF, _ = shred ctx ei in
    `Scalar eF
  | `Bag -> (
    (* label reuse: a bag-valued path copies the existing label *)
    match E.rooted_path ei with
    | Some (v, path) when List.mem_assoc v ctx.denv && path <> [] ->
      let d0 = List.assoc v ctx.denv in
      let rec nav d = function
        | [] -> d
        | a :: rest -> nav (child_of ctx d a) rest
      in
      let parent = nav d0 (List.filteri (fun i _ -> i < List.length path - 1) path) in
      let last = List.nth path (List.length path - 1) in
      let sub = child_of ctx parent last in
      let labelE =
        List.fold_left (fun acc a -> E.Proj (acc, a)) (E.Var v) path
      in
      `Label (labelE, EAlias sub)
    | _ ->
      let eiF, di = shred ctx ei in
      let site = fresh_site () in
      let labelE, lam = close_body ctx ~site eiF in
      let item_ty =
        match flat_type_of ctx eiF with
        | T.TBag t -> t
        | t -> unsupported "bag field of non-bag flat type %a" T.pp t
      in
      `Label (labelE, ELams { lams = [ lam ]; child = di; item_ty }))

and shred_field_kind ctx (ei : E.t) =
  (* decide bag-ness syntactically where cheap, else via flat typing of the
     shredded form: bag fields shred to bag-typed expressions *)
  match ei with
  | E.ForUnion _ | E.Union _ | E.Empty _ | E.Singleton _ | E.Dedup _
  | E.SumBy _ | E.GroupBy _ ->
    `Bag
  | E.If (_, t, _) -> shred_field_kind ctx t
  | E.Proj _ | E.Var _ -> (
    let eF, d = shred ctx ei in
    ignore d;
    match flat_type_of ctx eF with
    | T.TBag _ -> `Bag
    | T.TLabel -> (
      (* a label-typed flat value corresponds to a bag in the source *)
      match E.rooted_path ei with Some _ -> `Bag | None -> `Scalar)
    | _ -> `Scalar)
  | _ -> `Scalar

(* an empty bag's dictionary tree: entries with no lambdas *)
and dtree_of_empty (elem : T.t) : dtree =
  match bag_attrs elem with
  | [] -> DEmpty
  | attrs ->
    DNode
      (List.map
         (fun (a, inner) ->
           ( a,
             ELams
               { lams = [];
                 child = dtree_of_empty inner;
                 item_ty = flat_of inner } ))
         attrs)

and union_dtree d1 d2 =
  match d1, d2 with
  | DEmpty, d | d, DEmpty -> d
  | _ -> DUnion (d1, d2)

(* groupBy produces one nesting level: group labels capture the key values
   (this is exactly the shape of the second domain-elimination rule). *)
and shred_groupby ctx ~input ~keys ~group_attr =
  let inF, _din = shred ctx input in
  let item_fty =
    match flat_type_of ctx inF with
    | T.TBag t -> t
    | t -> unsupported "groupBy over non-bag %a" T.pp t
  in
  let fields = T.tuple_fields item_fty in
  let rest = List.filter (fun (n, _) -> not (List.mem n keys)) fields in
  List.iter
    (fun (n, t) ->
      match t with
      | T.TLabel ->
        unsupported
          "groupBy whose group contents contain inner collections (%s) is \
           not supported in the shredded route"
          n
      | _ -> ())
    rest;
  let site = fresh_site () in
  let x = E.fresh ~hint:"g" () in
  (* the group dictionary: match l = NewLabel(k..., outer captures...) then
     for y in inF union if y.k == k then <rest> *)
  let key_params =
    List.map
      (fun k -> (Printf.sprintf "cap%%%d_%s" site k, T.field item_fty k))
      keys
  in
  let y = E.fresh ~hint:"g" () in
  let cond =
    E.conj
      (List.map2
         (fun k (p, _) -> E.Cmp (E.Eq, E.Proj (E.Var y, k), E.Var p))
         keys key_params)
  in
  let raw_body =
    E.ForUnion
      ( y,
        inF,
        E.If
          ( cond,
            E.Singleton
              (E.Record (List.map (fun (n, _) -> (n, E.Proj (E.Var y, n))) rest)),
            None ) )
  in
  (* the body may reference enclosing generator variables (e.g. a groupBy
     over cop.corders inside a tuple constructor): close over their used
     paths, extending the label's captures beyond the grouping keys *)
  let extra_captures, extra_params, body =
    capture ctx ~flat:false ~param:(Printf.sprintf "cap%%%d_x%d" site) raw_body
  in
  let label_args x_expr =
    List.map (fun k -> E.Proj (x_expr, k)) keys @ List.map fst extra_captures
  in
  let fF =
    E.Dedup
      (E.ForUnion
         ( x,
           inF,
           E.Singleton
             (E.Record
                (List.map (fun k -> (k, E.Proj (E.Var x, k))) keys
                @ [ (group_attr, E.NewLabel { site; args = label_args (E.Var x) }) ])) ))
  in
  ( fF,
    DNode
      [
        ( group_attr,
          ELams
            { lams =
                [ { site; params = key_params @ extra_params; body;
                    identity = false } ];
              child = DEmpty;
              item_ty = T.TTuple rest } );
      ] )

(* ------------------------------------------------------------------ *)
(* Entry point *)

(** Shred one assignment body against the dataset environment. *)
let shred_expr ~registry ~(dtenv : (string * T.t) list) (e : E.t) :
    E.t * dtree =
  let e = Nrc.Norm.simplify e in
  shred { dtenv; ftenv = []; denv = []; registry } e
