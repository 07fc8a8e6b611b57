(** Direct unit tests of the plan layer: scalar expressions (null
    semantics, label operations), each operator of the plan language
    (outer-join padding, outer-unnest, drop-unnest, presence and
    placeholder semantics of the nest operators, dedup, union alignment),
    and schema inference. These pin the operator semantics of the
    {!Plan.Kernel} row code that both the local interpreter and the
    distributed executor run, and the kernels' size contract. *)

module V = Nrc.Value
module S = Plan.Sexpr
module Op = Plan.Op
module Row = Plan.Row

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a row with its schema *)
type named = string array * Row.t

let eval_op ?(env = []) op : named list =
  let names, rows = Plan.Local_eval.eval (Plan.Local_eval.env_of_list env) op in
  List.map (fun row -> (names, row)) (Array.to_list rows)

let get ((names, row) : named) c = Row.get names row c
let tup fields = V.Tuple fields

(* a row from (column, value) pairs, with a schema of its own *)
let row_of fields : named =
  (Array.of_list (List.map fst fields), Array.of_list (List.map snd fields))

let fields_of ((names, row) : named) = Array.to_list (Array.map2 (fun c v -> (c, v)) names row)
let compile e ((names, row) : named) = S.compile names e row
let compile_pred e ((names, row) : named) = S.compile_pred names e row

(* ------------------------------------------------------------------ *)
(* Scalar expressions *)

let test_sexpr_nulls () =
  let row = row_of [ ("x", V.Null); ("y", V.Int 3) ] in
  check "proj through null" true (V.is_null (compile (S.path "x" [ "a" ]) row));
  check "prim with null" true
    (V.is_null (compile (S.Prim (Nrc.Expr.Add, S.col "x", S.col "y")) row));
  check "cmp with null" true
    (V.is_null (compile (S.Cmp (Nrc.Expr.Eq, S.col "x", S.col "y")) row));
  check "pred: null is false" false
    (compile_pred (S.Cmp (Nrc.Expr.Eq, S.col "x", S.col "y")) row);
  check "isnull" true
    (V.equal (compile (S.IsNull (S.col "x")) row) (V.Bool true));
  check "not null" true
    (V.is_null (compile (S.Not (S.IsNull (S.col "y")) |> fun e -> S.Logic (Nrc.Expr.And, e, S.col "x")) row))

let test_sexpr_labels () =
  let row = row_of [ ("k", V.Int 7); ("s", V.Str "x") ] in
  let lbl = S.MkLabel { site = 3; args = [ S.col "k"; S.col "s" ] } in
  let v = compile lbl row in
  (match v with
  | V.Label { site = 3; args = [ V.Int 7; V.Str "x" ]; _ } -> ()
  | _ -> Alcotest.failf "bad label %a" V.pp v);
  let row2 = row_of [ ("l", v) ] in
  check "label arg" true (V.equal (compile (S.LabelArg (S.col "l", 0)) row2) (V.Int 7));
  check "label arg out of range is null" true
    (V.is_null (compile (S.LabelArg (S.col "l", 5)) row2));
  check "site check" true
    (V.equal (compile (S.IsLabelSite (S.col "l", 3)) row2) (V.Bool true));
  check "site mismatch" true
    (V.equal (compile (S.IsLabelSite (S.col "l", 4)) row2) (V.Bool false));
  check "cols_used" true
    (List.sort compare (S.cols_used lbl) = [ "k"; "s" ])

(* ------------------------------------------------------------------ *)
(* Operators *)

let rbag name rows = (name, V.Bag rows)

let test_outer_join () =
  let left = [ tup [ ("k", V.Int 1) ]; tup [ ("k", V.Int 2) ] ] in
  let right = [ tup [ ("k", V.Int 1); ("w", V.Int 10) ] ] in
  let plan =
    Op.Join
      { left = Op.Scan { input = "L"; binder = "l" };
        right = Op.Scan { input = "R"; binder = "r" };
        lkey = [ S.path "l" [ "k" ] ];
        rkey = [ S.path "r" [ "k" ] ];
        kind = Op.LeftOuter }
  in
  let rows = eval_op ~env:[ rbag "L" left; rbag "R" right ] plan in
  check_int "two rows" 2 (List.length rows);
  let unmatched = List.find (fun r -> V.is_null (get r "r")) rows in
  check "left side kept" true
    (V.equal (get unmatched "l") (tup [ ("k", V.Int 2) ]));
  (* null keys never match *)
  let rows2 =
    eval_op
      ~env:[ rbag "L" [ V.Null ]; rbag "R" right ]
      (Op.Join
         { left = Op.Scan { input = "L"; binder = "l" };
           right = Op.Scan { input = "R"; binder = "r" };
           lkey = [ S.path "l" [ "k" ] ];
           rkey = [ S.path "r" [ "k" ] ];
           kind = Op.LeftOuter })
  in
  check "null key padded, not joined" true
    (List.for_all (fun r -> V.is_null (get r "r")) rows2)

let test_unnest_variants () =
  let data =
    [ tup [ ("a", V.Int 1); ("items", V.Bag [ V.Int 10; V.Int 20 ]) ];
      tup [ ("a", V.Int 2); ("items", V.Bag []) ] ]
  in
  let scan = Op.Scan { input = "N"; binder = "n" } in
  let inner =
    Op.Unnest { input = scan; path = [ "n"; "items" ]; binder = "i"; outer = false; drop = false }
  in
  let outer =
    Op.Unnest { input = scan; path = [ "n"; "items" ]; binder = "i"; outer = true; drop = false }
  in
  let dropping =
    Op.Unnest { input = scan; path = [ "n"; "items" ]; binder = "i"; outer = true; drop = true }
  in
  check_int "inner drops empty" 2 (List.length (eval_op ~env:[ rbag "N" data ] inner));
  let orows = eval_op ~env:[ rbag "N" data ] outer in
  check_int "outer keeps empty" 3 (List.length orows);
  check_int "one null binder" 1
    (List.length (List.filter (fun r -> V.is_null (get r "i")) orows));
  (* drop removes the consumed attribute from the source column *)
  let drows = eval_op ~env:[ rbag "N" data ] dropping in
  List.iter
    (fun r ->
      match get r "n" with
      | V.Tuple fields -> check "items dropped" false (List.mem_assoc "items" fields)
      | _ -> Alcotest.fail "not a tuple")
    drows

let test_nest_bag_presence () =
  let rows =
    [ tup [ ("g", V.Int 1); ("x", V.Int 10) ];
      tup [ ("g", V.Int 1); ("x", V.Null) ];
      tup [ ("g", V.Int 2); ("x", V.Null) ] ]
  in
  let plan =
    Op.NestBag
      { input = Op.Scan { input = "T"; binder = "t" };
        keys = [ ("g", S.path "t" [ "g" ]) ];
        agg_keys = [];
        item = S.path "t" [ "x" ];
        presence = S.Not (S.IsNull (S.path "t" [ "x" ]));
        out = "xs" }
  in
  let out = eval_op ~env:[ rbag "T" rows ] plan in
  check_int "both groups appear" 2 (List.length out);
  let g2 = List.find (fun r -> V.equal (get r "g") (V.Int 2)) out in
  check "absent rows give empty bag" true (V.equal (get g2 "xs") (V.Bag []));
  let g1 = List.find (fun r -> V.equal (get r "g") (V.Int 1)) out in
  check "present rows contribute" true
    (V.bag_equal (get g1 "xs") (V.Bag [ V.Int 10 ]))

let test_nest_sum_placeholders () =
  (* keys + agg_keys: a G-group with no present rows emits one placeholder
     row with Null agg keys and zero sums *)
  let rows =
    [ tup [ ("g", V.Int 1); ("k", V.Str "a"); ("v", V.Int 5) ];
      tup [ ("g", V.Int 1); ("k", V.Str "a"); ("v", V.Int 7) ];
      tup [ ("g", V.Int 2); ("k", V.Null); ("v", V.Null) ] ]
  in
  let plan presence =
    Op.NestSum
      { input = Op.Scan { input = "T"; binder = "t" };
        keys = [ ("g", S.path "t" [ "g" ]) ];
        agg_keys = [ ("k", S.path "t" [ "k" ]) ];
        aggs = [ ("total", S.path "t" [ "v" ]) ];
        presence }
  in
  let out =
    eval_op ~env:[ rbag "T" rows ]
      (plan (S.Not (S.IsNull (S.path "t" [ "k" ]))))
  in
  check_int "two output rows" 2 (List.length out);
  let g1 = List.find (fun r -> V.equal (get r "g") (V.Int 1)) out in
  check "sum over present" true (V.equal (get g1 "total") (V.Int 12));
  let g2 = List.find (fun r -> V.equal (get r "g") (V.Int 2)) out in
  check "placeholder agg key is null" true (V.is_null (get g2 "k"));
  check "placeholder sum is zero" true (V.equal (get g2 "total") (V.Int 0));
  (* with keys = [] there are no placeholders *)
  let global =
    Op.NestSum
      { input = Op.Scan { input = "T"; binder = "t" };
        keys = [];
        agg_keys = [ ("k", S.path "t" [ "k" ]) ];
        aggs = [ ("total", S.path "t" [ "v" ]) ];
        presence = S.Not (S.IsNull (S.path "t" [ "k" ])) }
  in
  check_int "global agg skips absent group" 1
    (List.length (eval_op ~env:[ rbag "T" rows ] global))

let test_union_alignment () =
  let plan =
    Op.UnionAll
      ( Op.Project
          ([ ("a", S.Const (V.Int 1)); ("b", S.Const (V.Int 2)) ], Op.UnitRow),
        Op.Project
          ([ ("b", S.Const (V.Int 9)); ("a", S.Const (V.Int 8)) ], Op.UnitRow) )
  in
  let rows = eval_op plan in
  check_int "two rows" 2 (List.length rows);
  List.iter
    (fun ((names, _) : named) ->
      check "columns ordered as the left side" true (names = [| "a"; "b" |]))
    rows

let test_dedup_rows () =
  let rows = [ tup [ ("a", V.Int 1) ]; tup [ ("a", V.Int 1) ]; tup [ ("a", V.Int 2) ] ] in
  let plan = Op.Dedup (Op.Scan { input = "T"; binder = "t" }) in
  check_int "dedup" 2 (List.length (eval_op ~env:[ rbag "T" rows ] plan))

let test_schema_inference () =
  let plan =
    Op.NestSum
      { input =
          Op.AddIndex
            { input = Op.Scan { input = "R"; binder = "r" }; col = "id%0" };
        keys = [ ("g", S.col "r") ];
        agg_keys = [ ("k", S.col "id%0") ];
        aggs = [ ("t", S.col "r") ];
        presence = S.Const (V.Bool true) }
  in
  check "columns" true (Op.columns plan = [ "g"; "k"; "t" ]);
  check "inputs" true (Op.inputs plan = [ "R" ]);
  check_int "operator count" 3 (Op.count (fun _ -> true) plan)

(* ------------------------------------------------------------------ *)
(* Optimizer unit cases *)

let test_select_fusion () =
  let p = S.Cmp (Nrc.Expr.Eq, S.col "a", S.Const (V.Int 1)) in
  let q = S.Cmp (Nrc.Expr.Eq, S.col "b", S.Const (V.Int 2)) in
  let plan = Op.Select (p, Op.Select (q, Op.Scan { input = "R"; binder = "a" })) in
  let opt = Plan.Optimize.push_select plan in
  check_int "selects fused" 1
    (Op.count (function Op.Select _ -> true | _ -> false) opt)

let test_prune_keeps_whole_uses () =
  (* a column used whole must not be narrowed *)
  let plan =
    Op.Project ([ ("out", S.col "r") ], Op.Scan { input = "R"; binder = "r" })
  in
  let opt = Plan.Optimize.prune_columns plan in
  check_int "no narrowing projection inserted" 0
    (Op.count
       (function Op.Project (_, Op.Scan _) -> true | _ -> false)
       (match opt with Op.Project (_, inner) -> inner | p -> p))

(* [Op.map_children] is the optimizer's one plan traversal: it must keep
   every node it does not rewrite, and reach every child exactly once, in
   [Op.children] order. Checked at every node of every corpus plan, both
   routes, optimized and not. [Dedup] is an injective wrapper, so a child
   that is dropped or swapped shows in the children list. *)
let corpus_plans () =
  List.concat_map
    (fun (_, q) ->
      let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
      List.concat_map
        (fun optimizer ->
          let config = { Trance.Api.default_config with optimizer } in
          let sc = Trance.Api.compile_shredded ~config prog in
          List.map snd (Trance.Api.compile_standard ~config prog)
          @ List.map snd sc.Trance.Api.plans
          @ Option.to_list sc.Trance.Api.unshred_plan)
        [ Plan.Optimize.default; Plan.Optimize.none ])
    Fixtures.corpus

let cogroups = Op.count (function Op.Cogroup _ -> true | _ -> false)

let test_map_children () =
  check "the corpus holds a cogroup, so the law covers it" true
    (List.exists (fun p -> cogroups p > 0) (corpus_plans ()));
  let wrap c = Op.Dedup c in
  let rec nodes p = p :: List.concat_map nodes (Op.children p) in
  List.iter
    (fun plan ->
      List.iter
        (fun p ->
          check (Op.name p ^ ": identity keeps the node") true
            (Op.map_children Fun.id p = p);
          check (Op.name p ^ ": each child mapped, in order") true
            (Op.children (Op.map_children wrap p)
            = List.map wrap (Op.children p)))
        (nodes plan))
    (corpus_plans ())

(* [Sexpr.reads_only] decides every pushdown past a join: it looks at
   the top-level column of each referenced path only, holds vacuously on
   no expressions, and fails as soon as one expression reads a column
   outside the set. *)
let test_reads_only () =
  let lhs = [ "a"; "b" ] in
  let both = S.Cmp (Nrc.Expr.Eq, S.path "a" [ "x"; "y" ], S.col "b") in
  let nested =
    S.MkTuple [ ("k", S.IsNull (S.col "a")); ("l", S.MkLabel { site = 1; args = [ S.col "b" ] }) ]
  in
  check "no expressions" true (S.reads_only [] []);
  check "constants read nothing" true (S.reads_only [] [ S.Const (V.Int 1) ]);
  check "tuple paths count by their column" true (S.reads_only lhs [ both ]);
  check "nested expressions" true (S.reads_only lhs [ both; nested ]);
  check "a field name is no column" false
    (S.reads_only [ "x" ] [ S.path "a" [ "x" ] ]);
  check "one foreign column fails the list" false
    (S.reads_only lhs [ both; S.Not (S.col "c") ]);
  check "label arguments are read" false
    (S.reads_only [ "a" ] [ nested ])

(* ------------------------------------------------------------------ *)
(* Row sizes are additive over columns. The executor derives partition
   sizes from this instead of re-walking rows: an unnested row is its
   parent plus one column, an indexed row its input plus one int column,
   a joined row the sum of its sides. A change to the size model that
   breaks additivity must fail here before derived sizes drift. *)

let rec gen_value depth =
  QCheck.Gen.(
    let scalar =
      [
        return V.Null;
        map (fun i -> V.Int i) int;
        map (fun f -> V.Real f) float;
        map (fun d -> V.Date d) small_int;
        map (fun b -> V.Bool b) bool;
        map (fun s -> V.Str s) (string_size (int_bound 8));
      ]
    in
    if depth = 0 then oneof scalar
    else
      let sub = gen_value (depth - 1) in
      oneof
        (scalar
        @ [
            map2
              (fun site args -> V.label ~site args)
              small_int
              (list_size (int_bound 3) sub);
            map
              (fun vs ->
                V.Tuple (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) vs))
              (list_size (int_bound 3) sub);
            map (fun vs -> V.Bag vs) (list_size (int_bound 4) sub);
          ]))

let gen_row : named QCheck.Gen.t =
  QCheck.Gen.(
    map
      (fun vs -> row_of (List.mapi (fun i v -> (Printf.sprintf "c%d" i, v)) vs))
      (list_size (int_bound 4) (gen_value 3)))

(* the row with columns appended *)
let append row cols = row_of (fields_of row @ cols)

let print_row ((names, row) : named) = Fmt.to_to_string (Row.pp names) row
let byte_size ((_, row) : named) = Row.byte_size row

let prop_append_column =
  QCheck.Test.make ~name:"appending a column adds 8 + its value's size"
    ~count:(Fixtures.qcheck_count 300)
    (QCheck.make
       ~print:(fun (row, v) -> print_row row ^ " + " ^ V.to_string v)
       QCheck.Gen.(pair gen_row (gen_value 3)))
    (fun (row, v) ->
      byte_size (append row [ ("new", v) ])
      = byte_size row + 8 + V.byte_size v)

let prop_index_column =
  QCheck.Test.make ~name:"an index column adds 16" ~count:(Fixtures.qcheck_count 300)
    (QCheck.make
       ~print:(fun (row, i) -> print_row row ^ Printf.sprintf " + %d" i)
       QCheck.Gen.(pair gen_row (oneof [ int; return min_int; return max_int ])))
    (fun (row, i) ->
      byte_size (append row [ ("id", V.Int i) ]) = byte_size row + 16)

let prop_join_rows =
  QCheck.Test.make ~name:"a joined row is the sum of its sides" ~count:(Fixtures.qcheck_count 300)
    (QCheck.make
       ~print:(fun (a, b) -> print_row a ^ " @ " ^ print_row b)
       QCheck.Gen.(pair gen_row gen_row))
    (fun (a, b) ->
      byte_size (append a (fields_of b)) = byte_size a + byte_size b)

(* The parts of the size model that kernels derive sizes from, each equal
   to [Value.byte_size] of the value it stands for: a column's header, a
   tuple's and a field's bytes, a bag (and a column holding one) from its
   items', and a column holding a tuple of whole columns from theirs. *)
let prop_size_parts =
  QCheck.Test.make ~name:"the size model's parts agree with byte_size"
    ~count:(Fixtures.qcheck_count 300)
    (QCheck.make
       ~print:(fun (row, v) -> print_row row ^ " + " ^ V.to_string v)
       QCheck.Gen.(pair gen_row (gen_value 3)))
    (fun ((names, vals) as row, v) ->
      let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
      let items = Array.to_list vals in
      let fields = List.map2 (fun n v -> (n, v)) (Array.to_list names) items in
      byte_size (append row [ ("new", v) ]) - byte_size row - V.byte_size v = Row.column_header
      && V.byte_size (V.Tuple fields)
         = V.tuple_bytes (sum (fun (_, v) -> V.field_bytes (V.byte_size v)) fields)
      && V.byte_size (V.Tuple (("new", v) :: fields))
         = V.byte_size (V.Tuple fields) + V.field_bytes (V.byte_size v)
      && V.byte_size (V.Bag items) = V.bag_bytes (sum V.byte_size items)
      && Row.column_bytes (V.Bag items) = Row.bag_column (sum V.byte_size items)
      && Row.column_bytes (V.Tuple fields)
         = Row.tuple_of_columns (List.length items) + Row.byte_size vals)

(* ------------------------------------------------------------------ *)
(* The kernel size contract. Rows travel with their sizes and the
   executor accounts every partition from the sizes its kernel returns,
   never re-walking rows, so each size a kernel returns must be
   [Row.byte_size] of its row — on both halves of a skew split, through
   an unnest that drops its bag (whole or one attribute down), an outer
   one and one over a Null bag, a nest whose item is a tuple of whole
   columns or narrows a tuple, a nest by whole and computed keys, and a
   cogroup whose item narrows a right tuple or reads the left side, over
   a right side sharing a column name with the left. Row-wise kernels
   must also run the same on any split of their input, as partitions
   split it. *)

module K = Plan.Kernel

let col c = S.Col [ c ]

(* keys from a small domain, so joins, groups and dedup meet equal keys;
   the bags include permutations of each other *)
let gen_key =
  QCheck.Gen.oneofl
    [ V.Null; V.Int 1; V.Int 2; V.Str "a"; V.Bag [];
      V.Bag [ V.Int 1; V.Int 2 ]; V.Bag [ V.Int 2; V.Int 1 ] ]

let gen_bag =
  QCheck.Gen.(
    oneof
      [ return V.Null; map (fun vs -> V.Bag vs) (list_size (int_bound 3) (gen_value 2)) ])

let gen_num =
  QCheck.Gen.(
    oneof
      [ return V.Null; map (fun i -> V.Int i) small_signed_int;
        map (fun f -> V.Real f) (float_bound_inclusive 100.) ])

(* a key, a bag to unnest (also one field down, for two-step paths), a
   number to sum and an arbitrary value; the rows of one side share their
   schema, as the rows of one partition do *)
let left_names = [| "k"; "b"; "t"; "n"; "v" |]
let right_names = [| "rk"; "w"; "rt" |]

let gen_left_row =
  QCheck.Gen.(
    map
      (fun (k, b, t, n, v) -> [| k; b; V.Tuple [ ("items", t); ("f", v) ]; n; v |])
      (tup5 gen_key gen_bag gen_bag gen_num (gen_value 2)))

let gen_right_row =
  QCheck.Gen.(
    map3
      (fun k w (a, b) -> [| k; w; V.Tuple [ ("a", a); ("b", b) ] |])
      gen_key (gen_value 2) (pair (gen_value 1) gen_key))

let arbitrary_kernel_input =
  let print_rows names rows =
    String.concat "\n" (List.map (fun row -> print_row (names, row)) (Array.to_list rows))
  in
  QCheck.make
    ~print:(fun (l, r, cut) ->
      Printf.sprintf "left:\n%s\nright:\n%s\nsplit at %d" (print_rows left_names l)
        (print_rows right_names r) cut)
    QCheck.Gen.(
      let* l = array_size (int_bound 12) gen_left_row in
      let* r = array_size (int_bound 8) gen_right_row in
      let* cut = int_bound (Array.length l) in
      return (l, r, cut))

(* the kernels that work row by row, over a fixed build side, applied to
   the two sides' schemas: (name, (output schema, partition function)) *)
let row_kernels ?(lnames = left_names) ?(rnames = right_names) rrows =
  let index = K.index [ col "rk" ] rnames (K.sized rrows) in
  let join kind =
    let names, join = K.join ~lkey:[ col "k" ] ~kind lnames rnames in
    (names, join index)
  in
  [
    ("select", K.select (S.Not (S.IsNull (col "v"))) lnames);
    ("project", K.project [ ("k", col "k"); ("x", S.MkTuple [ ("v", col "v") ]) ] lnames);
    ("project whole columns", K.project [ ("v", col "v"); ("k2", col "k"); ("k", col "k") ] lnames);
    ("project narrowing a tuple",
      K.project [ ("k", col "k"); ("t", S.MkTuple [ ("g", S.path "t" [ "f" ]) ]) ] lnames);
    ("project carrying a column, leaving out nested ones",
      K.project [ ("n", col "n"); ("f", S.path "t" [ "f" ]) ] lnames);
    ("join", join Op.Inner);
    ("left-outer join", join Op.LeftOuter);
    ("unnest", K.unnest ~path:[ "b" ] ~binder:"i" ~outer:false ~drop:false lnames);
    ("outer unnest, drop", K.unnest ~path:[ "b" ] ~binder:"i" ~outer:true ~drop:true lnames);
    ("unnest a field, drop",
      K.unnest ~path:[ "t"; "items" ] ~binder:"i" ~outer:true ~drop:true lnames);
    ("align", K.align [| "v"; "k"; "missing" |] lnames);
  ]

let all_kernels ?(lnames = left_names) ?(rnames = right_names) rrows =
  let index = K.index [ col "rk" ] rnames (K.sized rrows) in
  (* the keys [1] and [{1, 2}], each sampled twice: heavy *)
  let heavy =
    let row k = Array.map (fun c -> if c = "k" then k else V.Null) lnames in
    let sample = List.concat_map (fun k -> [ row k; row k ]) [ V.Int 1; V.Bag [ V.Int 1; V.Int 2 ] ] in
    K.heavy_keys ~sample:4 ~threshold:0. [ col "k" ] lnames [| Array.of_list sample |]
  in
  let split = K.split_by_keys [ col "k" ] lnames heavy in
  let present = S.Not (S.IsNull (col "v")) in
  let applied (names, f) arg = (names, f arg) in
  row_kernels ~lnames ~rnames rrows
  @ [
      ("cogroup",
        applied
          (K.cogroup ~lkey:[ col "k" ] ~kind:Op.LeftOuter ~keys:[ ("k", col "k") ]
             ~item:(col "w") ~presence:(S.Not (S.IsNull (col "w"))) ~out:"ws" lnames rnames)
          index);
      ("cogroup narrowing a right tuple",
        applied
          (K.cogroup ~lkey:[ col "k" ] ~kind:Op.LeftOuter ~keys:[ ("k", col "k"); ("n", col "n") ]
             ~item:(S.MkTuple [ ("b", S.path "rt" [ "b" ]); ("a", S.path "rt" [ "a" ]) ])
             ~presence:(S.Not (S.IsNull (col "rk"))) ~out:"rs" lnames rnames)
          index);
      ("cogroup reading the left side",
        (* the right side's [w] named [v] too: the item's [v] is the left one *)
        let rnames = Array.map (fun c -> if c = "w" then "v" else c) rnames in
        applied
          (K.cogroup ~lkey:[ col "k" ] ~kind:Op.Inner ~keys:[ ("t", col "t") ]
             ~item:(S.MkTuple [ ("v", col "v") ])
             ~presence:(S.Const (V.Bool true)) ~out:"vs" lnames rnames)
          (K.index [ col "rk" ] rnames (K.sized rrows)));
      ("product",
        let names, product = K.product lnames rnames in
        (names, fun rows -> product rows (K.sized rrows)));
      ("dedup", K.dedup lnames);
      ("split, light side", (lnames, fun rows -> fst (split rows)));
      ("split, heavy side", (lnames, fun rows -> snd (split rows)));
      ("nest_bag",
        K.nest_bag ~ids:Op.no_ids ~keys:[ ("k", col "k") ] ~agg_keys:[] ~item:(col "v")
          ~presence:present ~out:"vs" lnames);
      ("nest_bag by key",
        K.nest_bag ~ids:Op.no_ids ~keys:[ ("k", col "k") ] ~agg_keys:[ ("b", col "b") ]
          ~item:(col "v") ~presence:present ~out:"vs" lnames);
      ("nest_bag of whole columns",
        K.nest_bag ~ids:Op.no_ids ~keys:[ ("k", col "k") ] ~agg_keys:[]
          ~item:(S.MkTuple [ ("v", col "v"); ("n", col "n"); ("t", col "t") ])
          ~presence:present ~out:"vs" lnames);
      ("nest_bag of whole flat columns",
        K.nest_bag ~ids:Op.no_ids ~keys:[ ("v", col "v") ] ~agg_keys:[]
          ~item:(S.MkTuple [ ("b", col "b"); ("t", col "t") ])
          ~presence:present ~out:"vs" lnames);
      ("nest_bag narrowing a tuple",
        K.nest_bag ~ids:Op.no_ids ~keys:[ ("n", col "n") ] ~agg_keys:[]
          ~item:(S.MkTuple [ ("f", S.path "t" [ "f" ]) ])
          ~presence:present ~out:"fs" lnames);
      ("nest_sum by whole and computed keys",
        K.nest_sum ~ids:Op.no_ids
          ~keys:[ ("t", col "t"); ("b", col "b"); ("f", S.path "t" [ "f" ]) ]
          ~agg_keys:[ ("k", col "k") ] ~aggs:[ ("s", col "n") ] ~presence:present lnames);
      ("nest_sum",
        K.nest_sum ~ids:Op.no_ids ~keys:[ ("k", col "k") ] ~agg_keys:[ ("b", col "b") ]
          ~aggs:[ ("s", col "n") ] ~presence:present lnames);
      ("global nest_sum",
        K.nest_sum ~ids:Op.no_ids ~keys:[] ~agg_keys:[] ~aggs:[ ("s", col "n") ]
          ~presence:present lnames);
    ]

(* the first row whose carried size is not its size *)
let wrong_size ((rows, sizes) : K.sized) =
  if Array.length rows <> Array.length sizes then Some (-1)
  else
    let rec go i =
      if i = Array.length rows then None
      else if sizes.(i) <> Row.byte_size rows.(i) then Some i
      else go (i + 1)
    in
    go 0

let prop_kernel_sizes =
  QCheck.Test.make ~name:"every kernel returns each row's byte size"
    ~count:(Fixtures.qcheck_count 300) arbitrary_kernel_input
    (fun (lrows, rrows, _) ->
      List.for_all
        (fun (name, (names, kernel)) ->
          let ((rows, sizes) as out) = kernel (K.sized lrows) in
          match wrong_size out with
          | None -> true
          | Some -1 -> QCheck.Test.fail_reportf "%s: row and size counts differ" name
          | Some i ->
            QCheck.Test.fail_reportf "%s: row %d %s carries %d, is %d" name i
              (print_row (names, rows.(i))) sizes.(i) (Row.byte_size rows.(i)))
        (all_kernels rrows))

(* Phantom sizes. A carried size is read, never recomputed, so inputs
   whose every size exceeds its row's by [phantom] show where a size is
   carried rather than walked: each output carries the offset once per
   input size it was derived from, and a sizer that walks instead (or a
   Scan that re-sizes its elements) drops it, which a comparison with
   [Row.byte_size] cannot see. The carrying cases are a Scan of a stored
   dataset, a project carrying a bag column and dropping flat ones, one
   narrowing a tuple column that may be Null while carrying every other,
   a Γ⊎ item and a cogroup item that carry a bag column. *)
let phantom = 1000

let phantom_sized rows : K.sized = (rows, Array.map (fun r -> Row.byte_size r + phantom) rows)

(* rows [k; b; n] (a flat key, a bag, a number), rows [t; k] (a tuple or
   Null, a flat key) and right rows [rk; rb] *)
let arbitrary_phantom_input =
  let flat_key = QCheck.Gen.oneofl [ V.Null; V.Int 1; V.Int 2; V.Str "a" ] in
  let bag = QCheck.Gen.(map (fun vs -> V.Bag vs) (list_size (int_bound 3) (gen_value 2))) in
  let tuple =
    QCheck.Gen.(
      oneof
        [ return V.Null;
          map2 (fun f g -> V.Tuple [ ("f", f); ("g", g) ]) (gen_value 1) (gen_value 1) ])
  in
  let rows g = QCheck.Gen.array_size (QCheck.Gen.int_bound 10) g in
  QCheck.make
    ~print:(fun (l, t, r) ->
      let print names rows = String.concat "\n" (List.map (fun row -> print_row (names, row)) (Array.to_list rows)) in
      String.concat "\n"
        [ print [| "k"; "b"; "n" |] l; print [| "t"; "k" |] t; print [| "rk"; "rb" |] r ])
    QCheck.Gen.(
      triple
        (rows (map3 (fun k b n -> [| k; b; n |]) flat_key bag gen_num))
        (rows (map2 (fun t k -> [| t; k |]) tuple flat_key))
        (rows (map2 (fun k b -> [| k; b |]) flat_key bag)))

let prop_phantom_sizes =
  QCheck.Test.make ~name:"a carried size keeps a phantom offset: scan, project, Γ⊎ and cogroup items"
    ~count:(Fixtures.qcheck_count 300) arbitrary_phantom_input
    (fun (lrows, trows, rrows) ->
      let lnames = [| "k"; "b"; "n" |] and rnames = [| "rk"; "rb" |] in
      (* an output row carries the offset once, or once per item of its
         bag column [c] *)
      let once _ _ = 1 and per_item c names row = List.length (V.bag_items (Row.get names row c)) in
      let scan () =
        let stored =
          Exec.Dataset.make [| "item" |]
            (Array.init 3 (fun p ->
                 phantom_sized
                   (Array.of_list
                      (List.filteri (fun i _ -> i mod 3 = p)
                         (List.map (fun r -> [| V.Tuple (fields_of (lnames, r)) |]) (Array.to_list lrows))))))
        in
        let out =
          Exec.Pool.with_pool ~domains:1 (fun pool ->
              Exec.Executor.run_rows ~pool ~config:Exec.Config.unbounded
                ~stats:(Exec.Stats.create ())
                (Exec.Executor.env_of_list [ ("R", stored) ])
                (Op.Scan { input = "R"; binder = "x" }))
        in
        (out.names, (Array.concat (Array.to_list out.parts), Array.concat (Array.to_list out.sizes)))
      in
      let applied (names, f) rows () = (names, f (phantom_sized rows)) in
      let index = K.index [ col "rk" ] rnames (phantom_sized rrows) in
      List.for_all
        (fun (name, run, count) ->
          let names, (rows, sizes) = run () in
          let rec go i =
            i = Array.length rows
            ||
            let want = Row.byte_size rows.(i) + (phantom * count names rows.(i)) in
            (sizes.(i) = want
            || QCheck.Test.fail_reportf "%s: row %d %s carries %d, wants %d" name i
                 (print_row (names, rows.(i))) sizes.(i) want)
            && go (i + 1)
          in
          go 0)
        [ ("scan of a stored dataset", scan, once);
          ("project carrying a bag, dropping flat columns",
            applied (K.project [ ("b", col "b"); ("m", S.Prim (Nrc.Expr.Add, col "n", col "n")) ] lnames) lrows,
            once);
          ("project narrowing a tuple or Null, carrying the rest",
            applied
              (K.project [ ("t", S.MkTuple [ ("f", S.path "t" [ "f" ]) ]); ("k", col "k") ] [| "t"; "k" |])
              trows,
            once);
          ("nest_bag of a bag column",
            applied
              (K.nest_bag ~ids:Op.no_ids ~keys:[ ("k", col "k") ] ~agg_keys:[] ~item:(col "b")
                 ~presence:(S.Const (V.Bool true)) ~out:"bs" lnames)
              lrows,
            per_item "bs");
          ("cogroup of a right bag column",
            (fun () ->
              let names, cogroup =
                K.cogroup ~lkey:[ col "k" ] ~kind:Op.Inner ~keys:[ ("k", col "k") ] ~item:(col "rb")
                  ~presence:(S.Const (V.Bool true)) ~out:"rbs" lnames rnames
              in
              (names, cogroup index (K.sized lrows))),
            per_item "rbs") ])

(* A project narrowing a tuple subtracts the fields it drops, marking the
   kept names met in the bits of an int: one kept from a tuple wider than
   that (the first 62, then the first 70 of 80, fields kept in reverse
   order, and one field met twice) must still size its rows exactly. *)
let test_wide_narrowing () =
  let fields n = List.init n (fun i -> (Printf.sprintf "f%d" i, V.Int i)) in
  let dup = V.Tuple (fields 80 @ [ ("f3", V.Str "again") ]) in
  List.iter
    (fun keep ->
      let names = [| "t" |] in
      let narrow =
        S.MkTuple (List.rev (List.init keep (fun i -> let f = Printf.sprintf "f%d" i in (f, S.path "t" [ f ]))))
      in
      let _, f = K.project [ ("t", narrow) ] names in
      let rows, sizes = f (K.sized [| [| V.Tuple (fields 80) |]; [| dup |]; [| V.Null |] |]) in
      Array.iteri
        (fun i row ->
          check_int (Printf.sprintf "keeping %d: row %d" keep i) (Row.byte_size row) sizes.(i))
        rows)
    [ 62; 70 ]

let same_rows a b = Array.length a = Array.length b && Array.for_all2 (Array.for_all2 V.equal) a b

let prop_kernel_chunks =
  QCheck.Test.make
    ~name:"row-wise kernels: two chunks concatenated = the whole input"
    ~count:(Fixtures.qcheck_count 300) arbitrary_kernel_input
    (fun (lrows, rrows, cut) ->
      let a = Array.sub lrows 0 cut
      and b = Array.sub lrows cut (Array.length lrows - cut) in
      List.for_all
        (fun (name, (_, kernel)) ->
          let whole, wsizes = kernel (K.sized lrows) in
          let ra, sa = kernel (K.sized a) and rb, sb = kernel (K.sized b) in
          (same_rows whole (Array.append ra rb) && wsizes = Array.append sa sb)
          || QCheck.Test.fail_reportf "%s differs on chunks" name)
        (row_kernels rrows))

(* ------------------------------------------------------------------ *)
(* Column order. Kernels and compiled expressions resolve columns by name,
   once per schema, and then read by position, so inputs whose columns
   come in another order must still be read by name. Every kernel but
   dedup — whose row equality includes column order — returns the same
   rows, compared by column name, with the same sizes, on both sides'
   columns reversed as in their original order. *)

let reversed a = Array.of_list (List.rev (Array.to_list a))
let left_reversed = reversed left_names
let right_reversed = reversed right_names

let by_name names row =
  V.Tuple
    (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) (fields_of (names, row)))

let same_by_name (anames, a) (bnames, b) =
  Array.length a = Array.length b
  && Array.for_all2 (fun r s -> V.equal (by_name anames r) (by_name bnames s)) a b

let prop_kernel_column_order =
  QCheck.Test.make ~name:"kernels read inputs in any column order by name"
    ~count:(Fixtures.qcheck_count 300) arbitrary_kernel_input
    (fun (lrows, rrows, _) ->
      let kernels ~lnames ~rnames rrows =
        List.filter (fun (name, _) -> name <> "dedup") (all_kernels ~lnames ~rnames rrows)
      in
      List.for_all2
        (fun (name, (names, uniform)) (_, (rnames, reordered)) ->
          let rows, bytes = uniform (K.sized lrows)
          and rrows', rbytes = reordered (K.sized (Array.map reversed lrows)) in
          (same_by_name (names, rows) (rnames, rrows') && bytes = rbytes)
          || QCheck.Test.fail_reportf "%s differs on reversed columns" name)
        (kernels ~lnames:left_names ~rnames:right_names rrows)
        (kernels ~lnames:left_reversed ~rnames:right_reversed (Array.map reversed rrows)))

let prop_compiled_column_order =
  QCheck.Test.make ~name:"one compiled expression reads by name, in any column order"
    ~count:(Fixtures.qcheck_count 300) arbitrary_kernel_input
    (fun (lrows, _, _) ->
      List.for_all
        (fun e ->
          let compiled = S.compile left_names e and back = S.compile left_reversed e in
          Array.for_all (fun row -> V.equal (compiled row) (back (reversed row))) lrows
          || QCheck.Test.fail_reportf "%s differs" (Fmt.to_to_string S.pp e))
        [ col "k"; col "v"; S.path "t" [ "items" ]; S.path "t" [ "f" ];
          S.MkTuple [ ("v", col "v"); ("k", col "k"); ("n", col "n") ];
          S.IsNull (col "b"); S.Cmp (Nrc.Expr.Eq, col "k", col "n");
          S.MkLabel { site = 1; args = [ col "n"; col "k" ] } ])

(* ------------------------------------------------------------------ *)
(* Allocation. Compiled column reads, null tests and comparisons run once
   per row in every key, join and selection, so they allocate nothing per
   row: a field lookup builds no closure and a boolean result is a shared
   constant. *)

let test_compiled_allocation () =
  let n = 10_000 in
  let names = [| "t" |] in
  let rows =
    Array.init n (fun i -> [| tup [ ("a", V.Int i); ("b", V.Int (i mod 3)); ("f", V.Str "x") ] |])
  in
  List.iter
    (fun e ->
      let f = S.compile names e in
      ignore (f rows.(0));
      let before = Gc.minor_words () in
      Array.iter (fun row -> ignore (Sys.opaque_identity (f row))) rows;
      let words = Gc.minor_words () -. before in
      if words >= float_of_int n then
        Alcotest.failf "%s: %.0f words over %d rows" (Fmt.to_to_string S.pp e) words n)
    [ S.path "t" [ "f" ]; S.Not (S.IsNull (S.col "t"));
      S.Cmp (Nrc.Expr.Eq, S.path "t" [ "a" ], S.path "t" [ "b" ]) ]

(* No kernel forces a minor collection. OCaml 5's [Array.make] promotes a
   young initial value first when the array exceeds 256 words, emptying
   every domain's minor heap; every row or value array a kernel builds is
   seeded with a static filler instead ({!Row.array_init},
   {!Row.array_of_list}), and so is every array a key table, a nest's
   group store or the input loader grows. Each case builds its 1,000-row
   input right after a collection, so the input is young, as a partition
   fresh from the previous kernel is, and allocates far less than a minor
   heap. A major cycle that ends mid-case also empties the minor heaps,
   so a case fails only when three attempts in a row each saw a
   collection; a forced one happens on every attempt. The loader runs on
   a two-lane pool spawned beforehand. *)
let test_no_forced_minor () =
  let n = 1000 in
  let always = S.Const (V.Bool true) in
  let names = [| "k"; "n"; "b" |] and rnames = [| "rk"; "r" |] in
  let rows () =
    K.sized
      (Row.array_init Row.empty n (fun i -> [| V.Int (i mod 7); V.Int i; V.Bag [ V.Int i; V.Int (-i) ] |]))
  in
  let right () = Row.array_init Row.empty 7 (fun k -> [| V.Int k; V.Str "r" |]) in
  let join_args () = K.index [ col "rk" ] rnames (K.sized (right ())) in
  let lkey = [ col "k" ] in
  let items () = List.init n (fun i -> tup [ ("k", V.Int (i mod 7)); ("n", V.Int i) ]) in
  let nested () =
    List.init n (fun i ->
        tup [ ("k", V.Int i); ("xs", V.Bag (List.init (i mod 3) (fun j -> tup [ ("x", V.Int j) ]))) ])
  in
  let nested_ty =
    Nrc.Types.(TBag (TTuple [ ("k", TScalar TInt); ("xs", TBag (TTuple [ ("x", TScalar TInt) ])) ]))
  in
  let heavy =
    K.heavy_keys ~sample:2 ~threshold:0. [ col "k" ] names
      [| [| [| V.Int 0; V.Null; V.Null |]; [| V.Int 0; V.Null; V.Null |] |] |]
  in
  let run (_, f) arg = ignore (f arg) in
  let collections kernel =
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.minor_collections in
    kernel ();
    (Gc.quick_stat ()).Gc.minor_collections - before
  in
  Exec.Pool.with_pool ~domains:2 @@ fun pool ->
  List.iter
    (fun (name, kernel) ->
      let rec attempt k =
        match collections kernel with
        | 0 -> ()
        | moved when k = 3 -> Alcotest.failf "%s: %d minor collections" name moved
        | _ -> attempt (k + 1)
      in
      attempt 1)
    [ ("add_index", fun () -> ignore (snd (K.add_index ~col:"id" names) Fun.id (rows ())));
      ("join", fun () ->
        ignore (snd (K.join ~lkey ~kind:Op.Inner names rnames) (join_args ()) (rows ())));
      ("cogroup", fun () ->
        ignore
          (snd
             (K.cogroup ~lkey ~kind:Op.Inner ~keys:[ ("n", col "n") ] ~item:(col "r")
                ~presence:always ~out:"rs" names rnames)
             (join_args ()) (rows ())));
      ("product", fun () -> ignore (snd (K.product names rnames) (rows ()) (K.sized (right ()))));
      ("select", fun () -> run (K.select always names) (rows ()));
      ("project", fun () -> run (K.project [ ("m", col "n") ] names) (rows ()));
      ("unnest", fun () ->
        run (K.unnest ~path:[ "b" ] ~binder:"x" ~outer:false ~drop:true names) (rows ()));
      ("dedup", fun () -> run (K.dedup names) (rows ()));
      ("align", fun () -> run (K.align [| "n"; "k" |] names) (rows ()));
      ("pack", fun () -> run (K.pack names) (rows ()));
      ("split_by_keys", fun () -> ignore (K.split_by_keys [ col "k" ] names heavy (rows ())));
      ("heavy_keys", fun () ->
        ignore (K.heavy_keys ~sample:n ~threshold:0.01 [ col "n" ] names [| fst (rows ()) |]));
      ("nest_bag", fun () ->
        run
          (K.nest_bag ~ids:Op.no_ids ~keys:[ ("n", col "n") ] ~agg_keys:[] ~item:(col "k")
             ~presence:always ~out:"ks" names)
          (rows ()));
      ("nest_sum", fun () ->
        run
          (K.nest_sum ~ids:Op.no_ids ~keys:[ ("n", col "n") ] ~agg_keys:[]
             ~aggs:[ ("s", col "k") ] ~presence:always names)
          (rows ()));
      ("key table growth", fun () ->
        let t = Plan.Key_table.create () in
        for i = 0 to n - 1 do
          ignore (Plan.Key_table.find_or_add t i (fun _ -> false) i)
        done);
      ("Local_eval scan", fun () ->
        ignore
          (Plan.Local_eval.eval
             (Plan.Local_eval.env_of_list [ ("R", V.Bag (items ())) ])
             (Op.Scan { input = "R"; binder = "x" })));
      ("Dataset.of_bag", fun () ->
        ignore (Exec.Dataset.of_bag ~partitions:1 (V.Bag (items ()))));
      ("Dataset.of_bag_by", fun () ->
        ignore
          (Exec.Dataset.of_bag_by ~partitions:1 ~key:[ S.Col [ "item"; "k" ] ] (V.Bag (items ()))));
      ("2-lane load", fun () ->
        Trance.Shred_type.reset_sites ();
        ignore
          (Trance.Shred_value.place pool ~partitions:3 [ ("N", nested_ty) ]
             [ ("N", V.Bag (nested ())) ])) ]

(* ------------------------------------------------------------------ *)
(* The one-pass nest kernels against the two-pass grouping they replaced,
   kept here as the reference: group the rows by G-key, keep each group's
   present members, group those again by the aggregation key, then
   aggregate each member list. Rows, their order, byte sums and the bits
   of every float sum must agree. *)

(* the nest rows' schema: two key columns, a small int key, two aggregands,
   an item and a presence flag *)
let nest_names = [| "k"; "a"; "m"; "n"; "r"; "v"; "p" |]

(* tables over evaluated key vectors, by [hash_key] and [Value.equal] *)
module KeyTbl = Hashtbl.Make (struct
  type t = V.t array

  let equal a b = Array.length a = Array.length b && Array.for_all2 V.equal a b
  let hash kv = K.hash_key (Array.to_list kv)
end)

(* groups by evaluated key tuples, the most recently first-seen key first *)
let group_by_keys key (rows : Row.t list) =
  let tbl = KeyTbl.create 16 in
  List.fold_left
    (fun groups row ->
      let kv = key row in
      match KeyTbl.find_opt tbl kv with
      | Some cell ->
        cell := row :: !cell;
        groups
      | None ->
        let cell = ref [ row ] in
        KeyTbl.add tbl kv cell;
        (kv, cell) :: groups)
    [] rows
  |> List.map (fun (kv, cell) -> (kv, List.rev !cell))

(* a key vector's evaluator over rows of [names] *)
let compile_keys keys names =
  let rd = S.compile_vec names keys in
  fun row -> Array.map (fun f -> f row) rd

let reference_nest ~keys ~agg_keys ~presence ~aggs ~aggregate ~empty ~global_empty rows =
  let key = compile_keys (List.map snd keys) nest_names
  and agg_key = compile_keys (List.map snd agg_keys) nest_names
  and present = S.compile_pred nest_names presence in
  let names = Array.of_list (List.map fst keys @ List.map fst agg_keys @ aggs) in
  let out kv akv vs = Array.concat [ kv; akv; Array.of_list vs ] in
  let global = keys = [] in
  group_by_keys key (Array.to_list rows)
  |> List.concat_map (fun (kv, members) ->
         match agg_keys, List.filter present members with
         | [], [] when global && not global_empty -> []
         | [], present -> [ out kv [||] (aggregate present) ]
         | _, [] ->
           if global then [] else [ out kv (Array.map (fun _ -> V.Null) (Array.of_list agg_keys)) empty ]
         | _, present ->
           group_by_keys agg_key present
           |> List.map (fun (akv, sub) -> out kv akv (aggregate sub)))
  |> Array.of_list |> K.sized |> fun rows -> (names, rows)

let reference_nest_bag ~keys ~agg_keys ~item ~presence ~out rows =
  let item = S.compile nest_names item in
  reference_nest ~keys ~agg_keys ~presence ~aggs:[ out ] ~global_empty:true rows
    ~aggregate:(fun rs -> [ V.Bag (List.map item rs) ])
    ~empty:[ V.Bag [] ]

let reference_nest_sum ~keys ~agg_keys ~aggs ~presence rows =
  let values = List.map (fun (_, e) -> S.compile nest_names e) aggs in
  let sum value rs =
    List.fold_left
      (fun acc row -> match value row with V.Null -> acc | v -> Nrc.Eval.add_values acc v)
      (V.Int 0) rs
  in
  reference_nest ~keys ~agg_keys ~presence ~aggs:(List.map fst aggs) ~global_empty:false rows
    ~aggregate:(fun rs -> List.map (fun value -> sum value rs) values)
    ~empty:(List.map (fun _ -> V.Int 0) values)

(* equal, with reals compared bit for bit *)
let rec identical (a : V.t) (b : V.t) =
  match a, b with
  | Real x, Real y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Tuple xs, Tuple ys ->
    List.equal (fun (n, x) (m, y) -> String.equal n m && identical x y) xs ys
  | Bag xs, Bag ys -> List.equal identical xs ys
  | _ -> V.equal a b

let identical_rows ((anames, (a, abytes)) : K.names * K.sized) (bnames, ((b, bbytes) : K.sized)) =
  anames = bnames
  && abytes = bbytes
  && Array.length a = Array.length b
  && Array.for_all2 (fun (r : Row.t) (s : Row.t) -> Array.for_all2 identical r s) a b

(* two key columns from the small domain (Null and permuted bags
   included), a small int key, two aggregands mixing Int, Real and Null,
   an item and a presence flag that is false or Null for a third of the
   rows *)

let gen_nest_row =
  QCheck.Gen.(
    map
      (fun ((k, a, m), (n, r), (v, p)) ->
        [| k; a; V.Int m; n; r; v; p |])
      (triple (triple gen_key gen_key (int_bound 2)) (pair gen_num gen_num)
         (pair (gen_value 1)
            (frequencyl [ (4, V.Bool true); (1, V.Bool false); (1, V.Null) ]))))

(* (name, G-keys, aggregation keys); global nests with and without
   aggregation keys included *)
let nest_groupings =
  [ ("k", [ "k" ], []); ("k / a", [ "k" ], [ "a" ]); ("k, m", [ "k"; "m" ], []);
    ("k / a, m", [ "k" ], [ "a"; "m" ]); ("global", [], []); ("global / a", [], [ "a" ]) ]

let prop_nest_oracle =
  QCheck.Test.make ~name:"nest_bag and nest_sum = the two-pass reference grouping"
    ~count:(Fixtures.qcheck_count 300)
    (QCheck.make
       ~print:(fun rows ->
         String.concat "\n" (List.map (fun row -> print_row (nest_names, row)) (Array.to_list rows)))
       QCheck.Gen.(
         frequency [ (1, return [||]); (9, array_size (int_bound 30) gen_nest_row) ]))
    (fun rows ->
      let presence = col "p" and cols = List.map (fun c -> (c, col c)) in
      let check ids rows (name, keys, agg_keys) =
        let keys = cols keys and agg_keys = cols agg_keys and rows = K.sized rows in
        let aggs = [ ("s", col "n"); ("t", col "r") ] in
        let apply (names, f) = (names, f rows) in
        (identical_rows
           (apply (K.nest_bag ~ids ~keys ~agg_keys ~item:(col "v") ~presence ~out:"vs" nest_names))
           (reference_nest_bag ~keys ~agg_keys ~item:(col "v") ~presence ~out:"vs" (fst rows))
        || QCheck.Test.fail_reportf "nest_bag by %s differs" name)
        && (identical_rows
              (apply (K.nest_sum ~ids ~keys ~agg_keys ~aggs ~presence nest_names))
              (reference_nest_sum ~keys ~agg_keys ~aggs ~presence (fst rows))
           || QCheck.Test.fail_reportf "nest_sum by %s differs" name)
      in
      (* the same rows with [k] and [a] functions of [m], which so
         determines them and stands for them where it is a G-key *)
      (* the keys [m] determines, Null for one [m] each, and one value per
         [m] that every row of that [m] shares physically, as rows
         unnested from one parent share its values *)
      let determined =
        Array.init 3 (fun m ->
            ( (if m = 0 then V.Null else V.Bag [ V.Int m ]),
              if m = 1 then V.Null else V.Tuple [ ("m", V.Int m) ] ))
      in
      let by_m =
        Array.map
          (fun (r : Row.t) ->
            let k, a = determined.(match r.(2) with V.Int m -> m | _ -> 0) in
            Array.mapi (fun i v -> match i with 0 -> k | 1 -> a | _ -> v) r)
          rows
      in
      let m_determines = { Op.unique = [ "m" ]; determines = [ ("m", [ "k"; "a" ]) ] } in
      List.for_all (check Op.no_ids rows) nest_groupings
      && List.for_all (check m_determines by_m)
           [ ("k, m by m", [ "k"; "m" ], []); ("m, a / k by m", [ "m"; "a" ], [ "k" ]);
             ("k, m, v by m", [ "k"; "m"; "v" ], []); ("k / a, m", [ "k" ], [ "a"; "m" ]) ])

(* Gamma-plus as the executor runs it: a combine per partition, whose
   hashes must be each partial's [hash_key] of its G-keys (else of its
   aggregation keys; a global aggregate's go unread), and a reduce over
   the partials of every partition that probes by those hashes and must
   answer, bit for bit and in order, as [nest_sum] hashing its own keys.
   Keys an id determines are Null for some ids and shared physically by
   the rows of one id, so the combine's memo of G-key hashes meets both. *)
let prop_carried_hashes =
  QCheck.Test.make ~name:"nest_sum_combine's hashes are the shuffle's; nest_sum_reduce = nest_sum"
    ~count:(Fixtures.qcheck_count 300)
    (QCheck.make
       ~print:(fun rows ->
         String.concat "\n" (List.map (fun row -> print_row (nest_names, row)) (Array.to_list rows)))
       QCheck.Gen.(array_size (int_bound 30) gen_nest_row))
    (fun rows ->
      let presence = col "p" and cols = List.map (fun c -> (c, col c)) in
      let aggs = [ ("s", col "n"); ("t", col "r") ] in
      let check ids rows (name, keys, agg_keys) =
        let keys = cols keys and agg_keys = cols agg_keys in
        let names, combine = K.nest_sum_combine ~ids ~keys ~agg_keys ~aggs ~presence nest_names in
        let half = Array.length rows / 2 in
        let combined =
          List.map
            (fun part -> combine (K.sized part))
            [ Array.sub rows 0 half; Array.sub rows half (Array.length rows - half) ]
        in
        let partials =
          ( Array.concat (List.map (fun ((r, _), _) -> r) combined),
            Array.concat (List.map (fun ((_, s), _) -> s) combined) )
        and hashes = Array.concat (List.map snd combined) in
        let shuffle_keys = if keys = [] then agg_keys else keys in
        let key = compile_keys (List.map (fun (n, _) -> col n) shuffle_keys) names in
        let global = shuffle_keys = [] in
        (global
        || Array.for_all2 (fun row h -> h = K.hash_key (Array.to_list (key row))) (fst partials) hashes
        || QCheck.Test.fail_reportf "combine by %s: a hash is not its shuffle keys'" name)
        &&
        (* the reduce's keys are the combine's output columns *)
        let keys = List.map (fun (n, _) -> (n, col n)) keys
        and agg_keys = List.map (fun (n, _) -> (n, col n)) agg_keys
        and aggs = List.map (fun (n, _) -> (n, col n)) aggs in
        let presence =
          match agg_keys with [] -> S.Const (V.Bool true) | (n, _) :: _ -> S.Not (S.IsNull (col n))
        in
        let names', reduce = K.nest_sum_reduce ~ids ~keys ~agg_keys ~aggs ~presence names in
        identical_rows
          (names', reduce (if global then [||] else hashes) partials)
          ((fun (n, f) -> (n, f partials)) (K.nest_sum ~ids ~keys ~agg_keys ~aggs ~presence names))
        || QCheck.Test.fail_reportf "reduce by %s differs" name
      in
      (* the keys [m] determines, Null for one [m] each, and one value per
         [m] that every row of that [m] shares physically, as rows
         unnested from one parent share its values *)
      let determined =
        Array.init 3 (fun m ->
            ( (if m = 0 then V.Null else V.Bag [ V.Int m ]),
              if m = 1 then V.Null else V.Tuple [ ("m", V.Int m) ] ))
      in
      let by_m =
        Array.map
          (fun (r : Row.t) ->
            let k, a = determined.(match r.(2) with V.Int m -> m | _ -> 0) in
            Array.mapi (fun i v -> match i with 0 -> k | 1 -> a | _ -> v) r)
          rows
      in
      let m_determines = { Op.unique = [ "m" ]; determines = [ ("m", [ "k"; "a" ]) ] } in
      List.for_all (check Op.no_ids rows) nest_groupings
      && List.for_all (check m_determines by_m)
           [ ("k, m by m", [ "k"; "m" ], []); ("m, a / k by m", [ "m"; "a" ], [ "k" ]);
             ("k / a, m", [ "k" ], [ "a"; "m" ]) ])

(* [Value.hash] ignores bag order, so {1,2} and {2,1} meet in one table
   bucket; key equality keeps them apart *)
let test_nest_permuted_bag_keys () =
  let b12 = V.Bag [ V.Int 1; V.Int 2 ] and b21 = V.Bag [ V.Int 2; V.Int 1 ] in
  check_int "equal hash_key" (K.hash_key [ b12 ]) (K.hash_key [ b21 ]);
  let names = [| "k"; "n" |] in
  let rows = [| [| b12; V.Int 1 |]; [| b21; V.Int 2 |] |] in
  let always = S.Const (V.Bool true) in
  List.iter
    (fun (name, (onames, f)) ->
      let out, _ = f (K.sized rows) in
      check_int (name ^ ": two groups") 2 (Array.length out);
      check (name ^ ": keys in first-seen order, newest first") true
        (V.equal (Row.get onames out.(0) "k") b21 && V.equal (Row.get onames out.(1) "k") b12))
    [ ("nest_bag",
        K.nest_bag ~ids:Op.no_ids ~keys:[ ("k", col "k") ] ~agg_keys:[] ~item:(col "n")
          ~presence:always ~out:"ns" names);
      ("nest_sum",
        K.nest_sum ~ids:Op.no_ids ~keys:[ ("k", col "k") ] ~agg_keys:[]
          ~aggs:[ ("s", col "n") ] ~presence:always names) ]

(* ------------------------------------------------------------------ *)
(* The nest kernels borrow their tables, group stores and probe array
   from their domain, one partition call at a time. *)

let nest_kernels =
  let presence = col "p" and cols = List.map (fun c -> (c, col c)) in
  List.concat_map
    (fun (name, keys, agg_keys) ->
      let keys = cols keys and agg_keys = cols agg_keys in
      [ ( "nest_bag by " ^ name,
          K.nest_bag ~ids:Op.no_ids ~keys ~agg_keys ~item:(col "v") ~presence ~out:"vs"
            nest_names );
        ( "nest_sum by " ^ name,
          K.nest_sum ~ids:Op.no_ids ~keys ~agg_keys
            ~aggs:[ ("s", col "n"); ("t", col "r") ] ~presence nest_names ) ])
    nest_groupings

(* [n] nest rows whose [m] pairs them up, so that grouping by it opens
   [n / 2] groups *)
let nest_partition n =
  let rows = QCheck.Gen.generate ~rand:(Random.State.make [| n |]) ~n gen_nest_row in
  Array.of_list (List.mapi (fun i (r : Row.t) -> r.(2) <- V.Int (i / 2); r) rows)

(* a call on a new domain, whose scratch nothing has used *)
let fresh_call f rows = Domain.join (Domain.spawn (fun () -> f rows))

(* a big partition, a tiny one and a middling one in turn: each call
   resets what the one before left, shrinking a table far too big *)
let test_nest_scratch_in_turn () =
  List.iter
    (fun n ->
      let rows = K.sized (nest_partition n) in
      List.iter
        (fun (name, (names, f)) ->
          check (Printf.sprintf "%s over %d rows" name n) true
            (identical_rows (names, f rows) (names, fresh_call f rows)))
        nest_kernels)
    [ 2000; 3; 500 ]

(* [f] over rows whose first and last rows' keys and item are one fresh
   string, which nothing else holds; with [raising], a string aggregand
   in row 200 makes a sum raise there *)
let[@inline never] nest_and_drop w f ~raising =
  let rows = nest_partition 300 in
  let v = V.Str (String.init 8 (fun i -> Char.chr (97 + i))) in
  let mark (r : Row.t) =
    r.(0) <- v;
    r.(1) <- v;
    r.(5) <- v;
    r.(6) <- V.Bool true
  in
  mark rows.(0);
  mark rows.(299);
  if raising then begin
    rows.(200).(3) <- V.Str "x";
    rows.(200).(6) <- V.Bool true
  end;
  Weak.set w 0 (Some v);
  match f (K.sized rows) with
  | _ when raising -> Alcotest.fail "a string aggregand summed"
  | out -> ignore (Sys.opaque_identity out)
  | exception Invalid_argument _ when raising -> ()

let test_nest_scratch_keeps_nothing () =
  List.iter
    (fun (name, (_, f)) ->
      let w = Weak.create 1 in
      nest_and_drop w f ~raising:false;
      Gc.full_major ();
      check (name ^ ": the rows' value is collected") true (Weak.get w 0 = None))
    nest_kernels

(* A sum raises mid-partition, with groups open; the next call answers as
   a fresh one, and the raised call's rows are collected. Each kernel runs
   on a domain of its own, whose scratch no earlier call left lent. *)
let test_nest_scratch_after_raise () =
  let rows = K.sized (nest_partition 600) in
  List.iter
    (fun (name, (names, f)) ->
      if String.starts_with ~prefix:"nest_sum" name then
        Domain.join
          (Domain.spawn (fun () ->
               let w = Weak.create 1 in
               nest_and_drop w f ~raising:true;
               check (name ^ " after a raise") true
                 (identical_rows (names, f rows) (names, fresh_call f rows));
               Gc.full_major ();
               check (name ^ ": the raised call's rows are collected") true
                 (Weak.get w 0 = None))))
    nest_kernels

(* The skew sampler takes every [n / sample]-th row, which can be one
   more row than [sample]: 10 rows at a sample of 3 are rows 0, 3, 6 and
   9. A key is heavy when it holds at least two of them. *)
let test_heavy_keys_sample () =
  let names = [| "k" |] in
  let heavy keys =
    K.key_count
      (K.heavy_keys ~sample:3 ~threshold:0.5 [ col "k" ] names
         [| Array.of_list (List.map (fun k -> [| V.Int k |]) keys) |])
  in
  check_int "four distinct sampled keys: none heavy" 0 (heavy (List.init 10 Fun.id));
  check_int "rows 0, 3, 6, 9 share a key: heavy" 1
    (heavy (List.init 10 (fun i -> if i mod 3 = 0 then 7 else i)))

(* ------------------------------------------------------------------ *)
(* The key hash. [hash_key kv mod partitions] places every shuffled row
   and every input row of a keyed dataset, so it is part of the simulated
   model: pinned on a fixed key of each kind, and for a 12-key G tuple
   like the nested-standard query's. The shuffle hashes a row's key vector
   without building the list, by the same fold. *)

let test_hash_key_pins () =
  let g12 =
    [ V.Int 1125899906842625; V.Str "AFRICA"; V.Int 2251799813685249; V.Bool true;
      V.Str "KENYA"; V.Int 3377699720527873; V.Bool true; V.Str "Customer#000000007";
      V.Int 4503599627370497; V.Bool false; V.Date 9131; V.Str "almond antique" ]
  in
  List.iter
    (fun (name, key, expected) -> check_int ("hash_key of " ^ name) expected (K.hash_key key))
    [ ("Int", [ V.Int 42 ], 395479322);
      ("negative Int", [ V.Int (-7) ], 175192444);
      ("Str", [ V.Str "ABC" ], 637696375);
      ("Date", [ V.Date 9131 ], 25386199930);
      ("Bool", [ V.Bool true ], 883721962);
      ("Null", [ V.Null ], 544);
      ("Label", [ V.label ~site:3 [ V.Int 1; V.Str "x" ] ], 28176063441);
      ("Tuple", [ V.Tuple [ ("a", V.Int 1); ("b", V.Str "x") ] ], 50791709848);
      ("Bag", [ V.Bag [ V.Int 1; V.Int 2 ] ], 1531740859);
      ("Int, Str", [ V.Int 42; V.Str "ABC" ], 12897554830);
      ("12-key G tuple", g12, 3402342390727925159) ]

(* [Value.hash] as it was folded before labels carried their hash, kept
   here as the reference *)
let rec folded_hash (v : V.t) =
  match v with
  | V.Null -> 17
  | V.Int x -> Hashtbl.hash x
  | V.Real x -> Hashtbl.hash x
  | V.Str x -> Hashtbl.hash x
  | V.Bool x -> Hashtbl.hash x
  | V.Date x -> (31 * Hashtbl.hash x) + 5
  | V.Label { site; args; _ } ->
    List.fold_left (fun acc a -> (acc * 31) + folded_hash a) (site + 193) args
  | V.Tuple fields ->
    List.fold_left (fun acc (n, x) -> (acc * 31) + Hashtbl.hash n + folded_hash x) 7 fields
  | V.Bag items -> List.fold_left (fun acc x -> acc + folded_hash x) 977 items

(* every label in [v], nested ones included *)
let rec labels_in acc (v : V.t) =
  match v with
  | V.Label l -> List.fold_left labels_in (v :: acc) l.args
  | V.Tuple fields -> List.fold_left (fun acc (_, x) -> labels_in acc x) acc fields
  | V.Bag items -> List.fold_left labels_in acc items
  | _ -> acc

(* Each producer of labels builds them through [Value.label], so a label's
   carried hash is the fold over its site and arguments. [round_reals]
   changes a label's arguments, so a copy keeping the old hash shows. *)
let test_label_hashes () =
  let module E = Nrc.Expr in
  let cop_elem = Nrc.Types.element Fixtures.cop_ty in
  let shredded = Trance.Shred_value.shred_bag "COP" cop_elem Fixtures.cop_value in
  let placed =
    Exec.Pool.with_pool ~domains:2 @@ fun pool ->
    Trance.Shred_value.place pool ~partitions:3 [ ("COP", Fixtures.cop_ty) ]
      [ ("COP", Fixtures.cop_value) ]
  in
  let row = row_of [ ("k", V.Int 7); ("s", V.Str "x"); ("r", V.Real 2.5) ] in
  let producers =
    [ ("Sexpr MkLabel", compile (S.MkLabel { site = 3; args = [ S.col "k"; S.col "s" ] }) row);
      ( "Nrc.Eval NewLabel",
        Nrc.Eval.eval (Nrc.Eval.env_of_list [])
          (E.NewLabel { site = 5; args = [ E.int_ 1; E.str "a"; E.real 0.5 ] }) );
      ( "Shred_value.shred_bag",
        V.Bag (shredded.Trance.Shred_value.top :: List.map snd shredded.Trance.Shred_value.dicts) );
      ( "Shred_value.place",
        V.Bag
          (List.concat_map
             (fun (_, _, datasets) ->
               List.concat_map
                 (fun (_, d) -> V.bag_items (Exec.Dataset.to_bag d))
                 (Option.value datasets ~default:[]))
             placed) );
      ("default_of_type", V.default_of_type Nrc.Types.TLabel);
      ( "canonicalize",
        V.canonicalize (V.label ~site:2 [ V.Bag [ V.Int 2; V.Int 1 ]; V.label ~site:1 [ V.Int 4 ] ]) );
      ( "round_reals",
        V.round_reals ~digits:2 (V.label ~site:2 [ V.Real 1.23456789; V.label ~site:1 [ V.Real 0.0049 ] ]) ) ]
  in
  List.iter
    (fun (name, v) ->
      let labels = labels_in [] v in
      check (name ^ " makes labels") true (labels <> []);
      List.iter
        (fun l -> check_int (name ^ ": " ^ V.to_string l) (folded_hash l) (V.hash l))
        labels)
    producers

let prop_vector_hash =
  QCheck.Test.make ~name:"the shuffle's key-vector hash = hash_key of the key list"
    ~count:(Fixtures.qcheck_count 200)
    (QCheck.make
       ~print:(Fmt.to_to_string (Fmt.list (fun ppf (n, v) -> Fmt.pf ppf "%s = %a@." n V.pp v)))
       Qgen.gen_inputs)
    (fun inputs ->
      List.for_all
        (fun (name, bag) ->
          let rows = Array.of_list (List.map (fun v -> [| v |]) (V.bag_items bag)) in
          let fields =
            match V.bag_items bag with
            | V.Tuple fs :: _ -> List.map (fun (f, _) -> S.path "x" [ f ]) fs
            | _ -> []
          in
          List.for_all
            (fun keys ->
              let hash = K.key_hasher keys [| "x" |] and key = compile_keys keys [| "x" |] in
              Array.for_all
                (fun row -> hash row = K.hash_key (Array.to_list (key row)))
                rows
              || QCheck.Test.fail_reportf "%s by %d keys" name (List.length keys))
            [ fields; S.col "x" :: fields; List.rev fields; [] ])
        inputs)

(* ------------------------------------------------------------------ *)
(* The cogroup rewrite *)

module Q = Tpch.Queries

(* every TPC-H cell on a tiny database: (name, family, level, program,
   input values) *)
let tpch_cells =
  let db =
    Tpch.Generator.generate
      { Tpch.Generator.default_scale with customers = 4; parts = 12 }
  in
  List.concat_map
    (fun family ->
      List.concat_map
        (fun level ->
          List.map
            (fun wide ->
              ( Printf.sprintf "%s/%d/%s" (Q.family_name family) level
                  (if wide then "wide" else "narrow"),
                family, level,
                Q.program ~wide ~family ~level (),
                Q.input_values ~wide ~family ~level db ))
            [ false; true ])
        [ 0; 1; 2; 3; 4 ])
    [ Q.Flat_to_nested; Q.Nested_to_nested; Q.Nested_to_flat ]

(* Both routes' steps, compiled under [config], with the input values each
   runs on: the shredded route's materialized assignments, then its
   unshredding plan. *)
let route_steps ~config prog inputs =
  Trance.Shred_type.reset_sites ();
  let std = Trance.Api.compile_standard ~config prog in
  let sc = Trance.Api.compile_shredded ~config prog in
  [ ("Standard", inputs, std);
    ( "Shred+Unshred",
      Trance.Shred_value.shred_env prog.Nrc.Program.inputs inputs,
      sc.Trance.Api.plans
      @ List.map (fun p -> ("Unshred", p)) (Option.to_list sc.Trance.Api.unshred_plan) ) ]

let unfused = { Trance.Api.default_config with cogroup = false }

(* Γ⊎ over L ⟕ R on k, where two L rows share k: fused only with the
   unique row id among the keys and no key read from R. The near misses
   would change the bag if fused. *)
let near_miss_steps =
  let tup = List.map (fun (f, i) -> (f, V.Int i)) in
  let inputs =
    [ ("L", V.Bag (List.map (fun r -> V.Tuple (tup r))
                     [ [ ("k", 1); ("a", 1) ]; [ ("k", 1); ("a", 2) ]; [ ("k", 2); ("a", 3) ] ]));
      ("R", V.Bag (List.map (fun r -> V.Tuple (tup r))
                     [ [ ("k", 1); ("b", 10) ]; [ ("k", 1); ("b", 20) ]; [ ("k", 2); ("b", 30) ] ])) ]
  in
  let join =
    Op.Join
      { left = Op.AddIndex { input = Op.Scan { input = "L"; binder = "x" }; col = "id%1" };
        right = Op.Scan { input = "R"; binder = "y" };
        lkey = [ S.path "x" [ "k" ] ]; rkey = [ S.path "y" [ "k" ] ];
        kind = Op.LeftOuter }
  in
  (* the ids differ run to run, so they are projected away *)
  let nest keys =
    let shown = List.filter (fun c -> c <> "id%1") (List.map fst keys) @ [ "bs" ] in
    Op.Project
      ( List.map (fun c -> (c, col c)) shown,
        Op.NestBag
          { input = join; keys; agg_keys = []; item = S.path "y" [ "b" ];
            presence = S.Not (S.IsNull (col "y")); out = "bs" } )
  in
  ( "near misses",
    inputs,
    [ ("unique id", nest [ ("id%1", col "id%1"); ("a", S.path "x" [ "a" ]) ]);
      ("no unique id", nest [ ("k", S.path "x" [ "k" ]) ]);
      ("a key read from R", nest [ ("id%1", col "id%1"); ("b", S.path "y" [ "b" ]) ]) ] )

(* (a) and (b): on every corpus program (optimized and not), every TPC-H
   cell and the near misses, each step of each route gives the same bag on
   the local interpreter with and without the rewrite (and with column
   pruning over the fused plan), and the rewrite is idempotent. The
   unfused step's rows feed later steps. *)
let test_cogroup_keeps_meaning () =
  let cases =
    List.concat_map
      (fun (name, q) ->
        let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
        List.map
          (fun (oname, optimizer) ->
            (name ^ "/" ^ oname, prog, Fixtures.inputs_val, { unfused with optimizer }))
          [ ("optimized", Plan.Optimize.default); ("unoptimized", Plan.Optimize.none) ])
      Fixtures.corpus
    @ List.map (fun (cell, _, _, prog, inputs) -> (cell, prog, inputs, unfused)) tpch_cells
  in
  let fused = ref 0 in
  let check_route case (route, inputs, steps) =
    let env = Plan.Local_eval.env_of_list inputs in
    List.iter
      (fun (step, plan) ->
        let what = String.concat "/" [ case; route; step ] in
        let plan' = Plan.Optimize.cogroup plan in
        if plan' <> plan then incr fused;
        check (what ^ ": idempotent") true (Plan.Optimize.cogroup plan' = plan');
        let expected = Plan.Local_eval.eval_to_bag env plan in
        Fixtures.check_bag_equal what expected
          (Plan.Local_eval.eval_to_bag env plan');
        Fixtures.check_bag_equal (what ^ ", pruned after fusing") expected
          (Plan.Local_eval.eval_to_bag env (Plan.Optimize.prune_columns plan'));
        Plan.Local_eval.add env step expected)
      steps
  in
  List.iter
    (fun (case, prog, inputs, config) ->
      List.iter (check_route case) (route_steps ~config prog inputs))
    cases;
  check_route "hand-built" near_miss_steps;
  check "some step was fused" true (!fused > 0)

(* (c): where the compiled routes hold a cogroup. Flat-to-nested builds its
   nested output with one in the standard plan, and every nested output is
   reassembled with one in the unshredding plan; nested-to-flat has none.
   Skew-aware compilation and [cogroup = false] fuse nothing. *)
let test_cogroup_placement () =
  let sum = List.fold_left (fun acc (_, p) -> acc + cogroups p) 0 in
  let counts config prog =
    let sc = Trance.Api.compile_shredded ~config prog in
    ( sum (Trance.Api.compile_standard ~config prog),
      sum sc.Trance.Api.plans,
      sum (List.map (fun p -> ("Unshred", p)) (Option.to_list sc.Trance.Api.unshred_plan)) )
  in
  let check_counts what expected actual =
    Alcotest.(check (triple int int int)) (what ^ ": standard, shredded, unshred")
      expected actual
  in
  List.iter
    (fun (cell, family, level, prog, _) ->
      let nested = level >= 1 in
      check_counts cell
        ( (if family = Q.Flat_to_nested && nested then 1 else 0),
          0,
          if family <> Q.Nested_to_flat && nested then 1 else 0 )
        (counts Trance.Api.default_config prog);
      check_counts (cell ^ " skew-aware") (0, 0, 0)
        (counts { Trance.Api.default_config with skew_aware = true } prog);
      check_counts (cell ^ " cogroup off") (0, 0, 0) (counts unfused prog))
    tpch_cells;
  (* a SparkSQL run executes no cogroup where a Standard run does *)
  let _, _, _, prog, inputs =
    List.find (fun (cell, _, _, _, _) -> cell = "flat-to-nested/2/narrow") tpch_cells
  in
  List.iter
    (fun (strategy, expected) ->
      let r =
        Trance.Api.run
          ~config:{ Trance.Api.default_config with trace = true }
          ~strategy prog inputs
      in
      check_int (Trance.Api.strategy_name strategy ^ ": cogroup spans") expected
        (List.length
           (Exec.Trace.find_all (fun sp -> sp.Exec.Trace.op = "Cogroup") r.Trance.Api.trace)))
    [ (Trance.Api.Standard, 1); (Trance.Api.SparkSQL_proxy, 0) ]

(* ------------------------------------------------------------------ *)
(* Row-id facts. Every operator's {!Op.ids} must hold of the rows the
   local interpreter gives it: a unique column holds a different value in
   every row, and rows equal in an id are equal in every column the id
   determines. The nest kernels hash and compare only the id that
   {!Op.probe_keys} picks, so over every Gamma's input, rows equal in that
   id must also agree on every G-key it stands for; the cogroup rewrite
   needs its key id unique on its left input. Checked on every operator
   of every step of both routes, for the TPC-H cells, the corpus
   (optimized and not), biomed and random programs. *)

let fail_ids what op fmt =
  Format.kasprintf (fun m -> Alcotest.failf "%s, at %s: %s" what (Op.name op) m) fmt

(* rows by the value of one column, in a table: the first row's [value] *)
let agree what op (rows : Row.t array) ~by ~value ~describe =
  let first = KeyTbl.create 16 in
  Array.iter
    (fun (row : Row.t) ->
      match by row with
      | None -> ()
      | Some id -> (
        let v = value row in
        match KeyTbl.find_opt first [| id |] with
        | None -> KeyTbl.add first [| id |] v
        | Some w ->
          if not (V.equal (V.Tuple w) (V.Tuple v)) then
            fail_ids what op "%s: rows equal in %a differ" describe V.pp id))
    rows

let slot_value names (row : Row.t) c = Option.map (fun i -> row.(i)) (Row.slot names c)

let check_facts what env (op : Op.t) =
  let (names, rows), f = (Plan.Local_eval.eval env op, Op.ids op) in
  let slot_value = slot_value names in
  List.iter
    (fun c ->
      let seen = KeyTbl.create 16 in
      Array.iter
        (fun row ->
          Option.iter
            (fun v ->
              if KeyTbl.mem seen [| v |] then fail_ids what op "%s repeats %a" c V.pp v;
              KeyTbl.add seen [| v |] ())
            (slot_value row c))
        rows)
    f.Op.unique;
  List.iter
    (fun (id, det) ->
      agree what op rows ~by:(fun row -> slot_value row id)
        ~value:(fun row ->
          List.filter_map (fun c -> Option.map (fun v -> (c, v)) (slot_value row c)) det)
        ~describe:(id ^ " determines " ^ String.concat "," det))
    f.Op.determines;
  match op with
  | Op.NestBag { input; keys; _ } | Op.NestSum { input; keys; _ } ->
    let probed = Op.probe_keys (Op.ids input) keys in
    let inames, irows = Plan.Local_eval.eval env input in
    let key = List.map (fun (n, e) -> (n, S.compile inames e)) keys in
    let part p row = List.filteri (fun j _ -> probed.(j) = p) (List.map (fun (n, k) -> (n, k row)) key) in
    if Array.exists not probed then
      agree what op irows
        ~by:(fun row -> Some (V.Tuple (part true row)))
        ~value:(part false) ~describe:"the G-keys left out of the probe"
  | Op.Cogroup { left; keys; _ } ->
    let unique = (Op.ids left).Op.unique in
    if not (List.exists (function _, S.Col [ c ] -> List.mem c unique | _ -> false) keys) then
      fail_ids what op "no key unique on the left input"
  | _ -> ()

let rec all_ops op = op :: List.concat_map all_ops (Op.children op)

let check_route_facts case (route, inputs, steps) =
  let env = Plan.Local_eval.env_of_list inputs in
  List.iter
    (fun (step, plan) ->
      let what = String.concat "/" [ case; route; step ] in
      List.iter (check_facts what env) (all_ops plan);
      Plan.Local_eval.add env step (Plan.Local_eval.eval_to_bag env plan))
    steps

let test_id_facts () =
  let config = Trance.Api.default_config in
  let corpus =
    List.concat_map
      (fun (name, q) ->
        let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
        List.map
          (fun (oname, optimizer) ->
            (name ^ "/" ^ oname, prog, Fixtures.inputs_val, { config with optimizer }))
          [ ("optimized", Plan.Optimize.default); ("unoptimized", Plan.Optimize.none) ])
      Fixtures.corpus
  in
  let biomed =
    let db =
      Biomed.Generator.generate
        { Biomed.Generator.small_scale with
          samples = 3; mutations_per_sample = 4; candidates_per_mutation = 2; genes = 20;
          edges_per_gene = 3 }
    in
    ("biomed", Biomed.Pipeline.program, Biomed.Generator.inputs db, config)
  in
  List.iter
    (fun (case, prog, inputs, config) ->
      List.iter (check_route_facts case) (route_steps ~config prog inputs))
    (corpus
    @ List.map (fun (cell, _, _, prog, inputs) -> (cell, prog, inputs, config)) tpch_cells
    @ [ biomed ])

let prop_id_facts =
  QCheck.Test.make ~name:"random programs: every operator's row-id facts hold"
    ~count:(Fixtures.qcheck_count 100) Qgen.arbitrary_case (fun (q, inputs) ->
      let prog = Nrc.Program.of_expr ~inputs:Qgen.inputs_ty ~name:"Q" q in
      List.iter (check_route_facts "qgen")
        (route_steps ~config:Trance.Api.default_config prog inputs);
      true)

let () =
  Alcotest.run "plan"
    [
      ( "sexpr",
        [
          Alcotest.test_case "null semantics" `Quick test_sexpr_nulls;
          Alcotest.test_case "labels" `Quick test_sexpr_labels;
        ] );
      ( "operators",
        [
          Alcotest.test_case "outer join" `Quick test_outer_join;
          Alcotest.test_case "unnest variants" `Quick test_unnest_variants;
          Alcotest.test_case "nest bag presence" `Quick test_nest_bag_presence;
          Alcotest.test_case "nest sum placeholders" `Quick
            test_nest_sum_placeholders;
          Alcotest.test_case "union alignment" `Quick test_union_alignment;
          Alcotest.test_case "dedup" `Quick test_dedup_rows;
          Alcotest.test_case "schema inference" `Quick test_schema_inference;
          Alcotest.test_case "nest: permuted bag keys stay apart" `Quick
            test_nest_permuted_bag_keys;
          Alcotest.test_case "nest scratch: partitions of 2000, 3, 500 rows in turn" `Quick
            test_nest_scratch_in_turn;
          Alcotest.test_case "nest scratch: a call after one that raised" `Quick
            test_nest_scratch_after_raise;
          Alcotest.test_case "nest scratch: keeps no value once a call ends" `Quick
            test_nest_scratch_keeps_nothing;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "select fusion" `Quick test_select_fusion;
          Alcotest.test_case "prune respects whole uses" `Quick
            test_prune_keeps_whole_uses;
          Alcotest.test_case "map_children: identity and children law" `Quick
            test_map_children;
          Alcotest.test_case "reads_only: top-level columns only" `Quick
            test_reads_only;
          Alcotest.test_case "cogroup: same bags, idempotent" `Quick
            test_cogroup_keeps_meaning;
          Alcotest.test_case "cogroup: placement" `Quick
            test_cogroup_placement;
          Alcotest.test_case "row-id facts hold on every operator" `Quick
            test_id_facts;
          QCheck_alcotest.to_alcotest prop_id_facts;
        ] );
      ( "row sizes",
        List.map QCheck_alcotest.to_alcotest
          [ prop_append_column; prop_index_column; prop_join_rows; prop_size_parts ] );
      ( "kernels",
        Alcotest.test_case "hash_key pins" `Quick test_hash_key_pins
        :: Alcotest.test_case "label hashes: every producer folds once" `Quick test_label_hashes
        :: Alcotest.test_case "heavy keys: the sample's last row" `Quick test_heavy_keys_sample
        :: Alcotest.test_case "a narrowing wider than an int's bits" `Quick test_wide_narrowing
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_kernel_sizes; prop_phantom_sizes; prop_kernel_chunks; prop_kernel_column_order;
               prop_compiled_column_order; prop_nest_oracle; prop_carried_hashes;
               prop_vector_hash ] );
      ( "allocation",
        [ Alcotest.test_case "compiled reads, null tests and comparisons" `Quick
            test_compiled_allocation;
          Alcotest.test_case "no kernel forces a minor collection" `Quick
            test_no_forced_minor ] );
    ]
