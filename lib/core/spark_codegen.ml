(** Spark code generation (Section 3, "Code Generation"): renders a plan as
    the Scala/Spark-Dataset program the paper's system would emit — one
    [val] binding per operator, Dataset column expressions for the scalar
    layer, [explode]/[explode_outer] for the unnest operators,
    [monotonically_increasing_id] for the unique IDs, [groupBy] with
    [collect_list(struct(...))] or [sum(when(...))] for the Gamma
    operators, [groupByKey(...).cogroup(...)] for a cogroup, and
    [repartition($"label")] for BagToDict.

    The emitted text cannot be executed in this sealed environment (that is
    the simulator's job — see DESIGN.md); it exists so the compilation
    output is inspectable in the terms the paper uses, and it is covered by
    golden tests on its structure. *)

module E = Nrc.Expr
module Op = Plan.Op
module S = Plan.Sexpr

let fresh_val =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "ds%d" !c

(* Spark column expression for a scalar expression *)
let rec col_expr (e : S.t) : string =
  match e with
  | S.Col path -> Printf.sprintf "$\"%s\"" (String.concat "." path)
  | S.Const v -> const v
  | S.Prim (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (col_expr a) (E.prim_to_string op) (col_expr b)
  | S.Cmp (E.Eq, a, b) ->
    Printf.sprintf "(%s === %s)" (col_expr a) (col_expr b)
  | S.Cmp (E.Ne, a, b) ->
    Printf.sprintf "(%s =!= %s)" (col_expr a) (col_expr b)
  | S.Cmp (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (col_expr a) (E.cmp_to_string op) (col_expr b)
  | S.Logic (E.And, a, b) ->
    Printf.sprintf "(%s && %s)" (col_expr a) (col_expr b)
  | S.Logic (E.Or, a, b) ->
    Printf.sprintf "(%s || %s)" (col_expr a) (col_expr b)
  | S.Not a -> Printf.sprintf "!%s" (col_expr a)
  | S.IsNull a -> Printf.sprintf "%s.isNull" (col_expr a)
  | S.If (c, a, b) ->
    Printf.sprintf "when(%s, %s).otherwise(%s)" (col_expr c) (col_expr a) (col_expr b)
  | S.MkLabel { site; args } ->
    Printf.sprintf "struct(lit(%d).as(\"site\")%s)" site
      (String.concat ""
         (List.mapi
            (fun i a -> Printf.sprintf ", %s.as(\"arg%d\")" (col_expr a) i)
            args))
  | S.LabelArg (a, i) -> Printf.sprintf "%s.getField(\"arg%d\")" (col_expr a) i
  | S.IsLabelSite (a, site) ->
    Printf.sprintf "(%s.getField(\"site\") === %d)" (col_expr a) site
  | S.MkTuple fields ->
    Printf.sprintf "struct(%s)"
      (String.concat ", "
         (List.map (fun (n, x) -> Printf.sprintf "%s.as(\"%s\")" (col_expr x) n) fields))

and const (v : Nrc.Value.t) : string =
  match v with
  | Nrc.Value.Int i -> Printf.sprintf "lit(%d)" i
  | Nrc.Value.Real r -> Printf.sprintf "lit(%g)" r
  | Nrc.Value.Str s -> Printf.sprintf "lit(%S)" s
  | Nrc.Value.Bool b -> Printf.sprintf "lit(%b)" b
  | Nrc.Value.Date d -> Printf.sprintf "lit(%d) /* date */" d
  | Nrc.Value.Null -> "lit(null)"
  | Nrc.Value.Bag [] -> "array()"
  | v -> Printf.sprintf "lit(%S)" (Nrc.Value.to_string v)

let named_cols fields =
  String.concat ", "
    (List.map (fun (n, e) -> Printf.sprintf "%s.as(\"%s\")" (col_expr e) n) fields)

let join_type = function Op.Inner -> "inner" | Op.LeftOuter -> "left_outer"

let key_cols keys = String.concat ", " (List.map col_expr keys)

(** Emit the Scala for one plan: the children's [val]s first, left before
    right, then one [val] for the operator; returns its name. *)
let rec emit (buf : Buffer.t) (op : Op.t) : string =
  let inputs = List.map (emit buf) (Op.children op) in
  let v = fresh_val () in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf ("val " ^ v ^ " = " ^ s ^ "\n")) fmt
  in
  (match op, inputs with
  | Op.Nil _, [] -> line "spark.emptyDataset  // Nil"
  | Op.UnitRow, [] -> line "spark.range(1).drop(\"id\")  // one empty row"
  | Op.Scan { input; binder }, [] ->
    line "%s.select(struct($\"*\").as(\"%s\"))" input binder
  | Op.Select (p, _), [ c ] -> line "%s.filter(%s)" c (col_expr p)
  | Op.Project (fields, _), [ c ] -> line "%s.select(%s)" c (named_cols fields)
  | Op.Join { lkey; rkey; kind; _ }, [ l; r ] ->
    let cond =
      String.concat " && "
        (List.map2
           (fun a b -> Printf.sprintf "%s === %s" (col_expr a) (col_expr b))
           lkey rkey)
    in
    line "%s.join(%s, %s, \"%s\")" l r cond (join_type kind)
  | Op.Cogroup { lkey; rkey; kind; keys; item; presence; out; _ }, [ l; r ] ->
    line
      "%s.groupByKey(%s).cogroup(%s.groupByKey(%s))(nestJoin(\"%s\", \
       Seq(%s), collect_list(when(%s, %s)).as(\"%s\")))  // cogroup: join + \
       Gamma-union fused, no flattened intermediate"
      l (key_cols lkey) r (key_cols rkey) (join_type kind) (named_cols keys)
      (col_expr presence) (col_expr item) out
  | Op.Product _, [ l; r ] -> line "%s.crossJoin(broadcast(%s))" l r
  | Op.Unnest { path; binder; outer; drop; _ }, [ c ] ->
    let fn = if outer then "explode_outer" else "explode" in
    let dropped =
      if drop then Printf.sprintf ".drop($\"%s\")" (String.concat "." path)
      else ""
    in
    line "%s.select($\"*\", %s($\"%s\").as(\"%s\"))%s" c fn
      (String.concat "." path) binder dropped
  | Op.AddIndex { col; _ }, [ c ] ->
    line "%s.withColumn(\"%s\", monotonically_increasing_id())" c col
  | Op.NestBag { keys; agg_keys; item; presence; out; _ }, [ c ] ->
    line
      "%s.groupBy(%s).agg(collect_list(when(%s, %s)).as(\"%s\"))  // \
       Gamma-union; NULL casts to empty bag"
      c (named_cols (keys @ agg_keys)) (col_expr presence) (col_expr item) out
  | Op.NestSum { keys; agg_keys; aggs; presence; _ }, [ c ] ->
    let sums =
      String.concat ", "
        (List.map
           (fun (n, e) ->
             Printf.sprintf "sum(when(%s, %s).otherwise(0)).as(\"%s\")"
               (col_expr presence) (col_expr e) n)
           aggs)
    in
    line "%s.groupBy(%s).agg(%s)  // Gamma-plus; NULL casts to 0" c
      (named_cols (keys @ agg_keys)) sums
  | Op.Dedup _, [ c ] -> line "%s.distinct()" c
  | Op.UnionAll _, [ l; r ] -> line "%s.unionByName(%s)" l r
  | Op.BagToDict { label; _ }, [ c ] ->
    line "%s.repartition(%s)  // BagToDict: label partitioning guarantee" c
      (col_expr label)
  | op, _ -> invalid_arg ("Spark_codegen: arity of " ^ Op.name op));
  v

(** Render a whole plan as a Scala snippet assigning the result to [name]. *)
let plan_to_scala ~name (op : Op.t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "// ---- %s ----\n" name);
  let last = emit buf op in
  Buffer.add_string buf (Printf.sprintf "val %s = %s\n" name last);
  Buffer.contents buf

(** Render the compiled assignments of a program (either route). *)
let assignments_to_scala (plans : (string * Op.t) list) : string =
  String.concat "\n" (List.map (fun (n, p) -> plan_to_scala ~name:n p) plans)
