(** The TPC-H NRC query benchmark of Section 6: flat-to-nested,
    nested-to-nested, and nested-to-flat query families, each parameterized
    by nesting level (0-4) and by the narrow/wide variant.

    - Flat-to-nested queries iteratively group the relational inputs
      (Lineitem under Orders under Customer under Nation under Region),
      keeping (pkey, lqty) at the leaf; the narrow variant projects a single
      attribute per level, the wide variant keeps everything.
    - Nested-to-nested queries take the materialized flat-to-nested result
      (dataset ["COP"]) and join Part at the lowest level followed by
      [sumBy^{qty*price}_{pname}], as in Example 1.
    - Nested-to-flat queries do the same join/aggregation but sum at the top
      level keyed by top-level attributes, returning a flat collection. *)

module E = Nrc.Expr
module T = Nrc.Types
open Nrc.Builder

let nested_name = "COP"

let fields_of var attrs = List.map (fun a -> (a, var #. a)) attrs

(* ------------------------------------------------------------------ *)
(* Types of the materialized nested inputs *)

let rec nested_input_ty ?(wide = false) ~level () : T.t =
  let project ty attrs = List.map (fun a -> (a, T.field (T.element ty) a)) attrs in
  if level = 0 then T.bag (T.tuple (project Schema.lineitem_ty (Schema.leaf_attrs ~wide)))
  else
    let info = Schema.levels.(pred level) in
    T.bag
      (T.tuple
         (project (List.assoc info.entity Schema.flat_inputs_ty) (Schema.level_attrs ~wide info)
         @ [ (info.nested_attr, nested_input_ty ~wide ~level:(pred level) ()) ]))

(* ------------------------------------------------------------------ *)
(* Flat-to-nested *)

let flat_to_nested ?(wide = false) ~level () : E.t =
  let rec build lvl parent =
    let x, entity =
      if lvl = 0 then ("l", "Lineitem")
      else (Printf.sprintf "x%d" lvl, Schema.levels.(pred lvl).entity)
    in
    for_ x (input entity) (fun xv ->
        let fields =
          if lvl = 0 then fields_of xv (Schema.leaf_attrs ~wide)
          else
            let info = Schema.levels.(pred lvl) in
            fields_of xv (Schema.level_attrs ~wide info)
            @ [ (info.nested_attr, build (pred lvl) (Some (xv, info.pk))) ]
        in
        let body = sng (record fields) in
        match parent with
        | None -> body
        | Some (pvar, pk) -> where (xv #. pk == pvar #. pk) body)
  in
  build level None

(* ------------------------------------------------------------------ *)
(* Nested-to-nested and nested-to-flat *)

(* join the leaf items [src] with Part: one [fields p] row per match, plus
   its qty*price [total] *)
let join_part src fields =
  for_ "op" src (fun op ->
      for_ "p" (input "Part") (fun p ->
          where
            (op #. "pkey" == p #. "pkey")
            (sng (record (fields p @ [ ("total", op #. "lqty" * p #. "pprice") ])))))

(* the leaf aggregation of Example 1: join Part, sum qty*price per pname *)
let leaf_aggregate src =
  sum_by ~keys:[ "pname" ] ~values:[ "total" ]
    (join_part src (fun p -> [ ("pname", p #. "pname") ]))

let nested_to_nested ?(wide = false) ~level () : E.t =
  let rec rebuild lvl src =
    if lvl = 0 then leaf_aggregate src
    else
      let info = Schema.levels.(pred lvl) in
      for_ (Printf.sprintf "y%d" lvl) src (fun xv ->
          sng
            (record
               (fields_of xv (Schema.level_attrs ~wide info)
               @ [ (info.nested_attr, rebuild (pred lvl) (xv #. info.nested_attr)) ])))
  in
  rebuild level (input nested_name)

let nested_to_flat ?(wide = false) ~level () : E.t =
  if level = 0 then leaf_aggregate (input nested_name)
  else begin
    let keys = Schema.level_attrs ~wide Schema.levels.(pred level) in
    let rec navigate lvl src (topvar : E.t) =
      if lvl = 0 then join_part src (fun _ -> fields_of topvar keys)
      else
        let info = Schema.levels.(pred lvl) in
        for_ (Printf.sprintf "z%d" lvl) src (fun xv ->
            let topvar = if lvl = level then xv else topvar in
            navigate (pred lvl) (xv #. info.nested_attr) topvar)
    in
    sum_by ~keys ~values:[ "total" ]
      (navigate level (input nested_name) (v "unused"))
  end

(* ------------------------------------------------------------------ *)
(* Program assembly *)

type family = Flat_to_nested | Nested_to_nested | Nested_to_flat

let family_name = function
  | Flat_to_nested -> "flat-to-nested"
  | Nested_to_nested -> "nested-to-nested"
  | Nested_to_flat -> "nested-to-flat"

(** The benchmark program for one (family, level, variant) cell, together
    with the inputs it needs. Flat-to-nested reads the relational inputs;
    the nested families read the materialized nested input [COP] and
    [Part]. *)
let program ?(wide = false) ~family ~level () : Nrc.Program.t =
  let nested =
    [ (nested_name, nested_input_ty ~wide ~level ()); ("Part", Schema.part_ty) ]
  in
  let inputs, query =
    match family with
    | Flat_to_nested -> (Schema.flat_inputs_ty, flat_to_nested)
    | Nested_to_nested -> (nested, nested_to_nested)
    | Nested_to_flat -> (nested, nested_to_flat)
  in
  Nrc.Program.of_expr ~inputs ~name:"Q" (query ~wide ~level ())

(** Input values for one benchmark cell. *)
let input_values ?(wide = false) ~family ~level (db : Generator.db) :
    (string * Nrc.Value.t) list =
  match family with
  | Flat_to_nested -> Generator.flat_inputs db
  | Nested_to_nested | Nested_to_flat ->
    [
      (nested_name, Generator.nested_input ~wide ~level db);
      ("Part", db.Generator.part);
    ]
