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

let eval_op ?(env = []) op =
  Array.to_list (Plan.Local_eval.eval (Plan.Local_eval.env_of_list env) op)

let tup fields = V.Tuple fields

(* a row from (column, value) pairs, with a schema of its own *)
let row_of fields =
  Row.make (Array.of_list (List.map fst fields)) (Array.of_list (List.map snd fields))

let fields_of (row : Row.t) = Array.to_list (Array.map2 (fun c v -> (c, v)) row.names row.vals)

(* ------------------------------------------------------------------ *)
(* Scalar expressions *)

let test_sexpr_nulls () =
  let row = row_of [ ("x", V.Null); ("y", V.Int 3) ] in
  check "proj through null" true (V.is_null (S.compile (S.path "x" [ "a" ]) row));
  check "prim with null" true
    (V.is_null (S.compile (S.Prim (Nrc.Expr.Add, S.col "x", S.col "y")) row));
  check "cmp with null" true
    (V.is_null (S.compile (S.Cmp (Nrc.Expr.Eq, S.col "x", S.col "y")) row));
  check "pred: null is false" false
    (S.compile_pred (S.Cmp (Nrc.Expr.Eq, S.col "x", S.col "y")) row);
  check "isnull" true
    (V.equal (S.compile (S.IsNull (S.col "x")) row) (V.Bool true));
  check "not null" true
    (V.is_null (S.compile (S.Not (S.IsNull (S.col "y")) |> fun e -> S.Logic (Nrc.Expr.And, e, S.col "x")) row))

let test_sexpr_labels () =
  let row = row_of [ ("k", V.Int 7); ("s", V.Str "x") ] in
  let lbl = S.MkLabel { site = 3; args = [ S.col "k"; S.col "s" ] } in
  let v = S.compile lbl row in
  (match v with
  | V.Label { site = 3; args = [ V.Int 7; V.Str "x" ] } -> ()
  | _ -> Alcotest.failf "bad label %a" V.pp v);
  let row2 = row_of [ ("l", v) ] in
  check "label arg" true (V.equal (S.compile (S.LabelArg (S.col "l", 0)) row2) (V.Int 7));
  check "label arg out of range is null" true
    (V.is_null (S.compile (S.LabelArg (S.col "l", 5)) row2));
  check "site check" true
    (V.equal (S.compile (S.IsLabelSite (S.col "l", 3)) row2) (V.Bool true));
  check "site mismatch" true
    (V.equal (S.compile (S.IsLabelSite (S.col "l", 4)) row2) (V.Bool false));
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
  let unmatched = List.find (fun r -> V.is_null (Row.get r "r")) rows in
  check "left side kept" true
    (V.equal (Row.get unmatched "l") (tup [ ("k", V.Int 2) ]));
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
    (List.for_all (fun r -> V.is_null (Row.get r "r")) rows2)

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
    (List.length (List.filter (fun r -> V.is_null (Row.get r "i")) orows));
  (* drop removes the consumed attribute from the source column *)
  let drows = eval_op ~env:[ rbag "N" data ] dropping in
  List.iter
    (fun r ->
      match Row.get r "n" with
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
  let g2 = List.find (fun r -> V.equal (Row.get r "g") (V.Int 2)) out in
  check "absent rows give empty bag" true (V.equal (Row.get g2 "xs") (V.Bag []));
  let g1 = List.find (fun r -> V.equal (Row.get r "g") (V.Int 1)) out in
  check "present rows contribute" true
    (V.bag_equal (Row.get g1 "xs") (V.Bag [ V.Int 10 ]))

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
  let g1 = List.find (fun r -> V.equal (Row.get r "g") (V.Int 1)) out in
  check "sum over present" true (V.equal (Row.get g1 "total") (V.Int 12));
  let g2 = List.find (fun r -> V.equal (Row.get r "g") (V.Int 2)) out in
  check "placeholder agg key is null" true (V.is_null (Row.get g2 "k"));
  check "placeholder sum is zero" true (V.equal (Row.get g2 "total") (V.Int 0));
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
    (fun (r : Row.t) ->
      check "columns ordered as the left side" true (r.names = [| "a"; "b" |]))
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
              (fun site args -> V.Label { site; args })
              small_int
              (list_size (int_bound 3) sub);
            map
              (fun vs ->
                V.Tuple (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) vs))
              (list_size (int_bound 3) sub);
            map (fun vs -> V.Bag vs) (list_size (int_bound 4) sub);
          ]))

let gen_row : Row.t QCheck.Gen.t =
  QCheck.Gen.(
    map
      (fun vs -> row_of (List.mapi (fun i v -> (Printf.sprintf "c%d" i, v)) vs))
      (list_size (int_bound 4) (gen_value 3)))

(* the row with columns appended *)
let append row cols = row_of (fields_of row @ cols)

let print_row = Fmt.to_to_string Row.pp

let prop_append_column =
  QCheck.Test.make ~name:"appending a column adds 8 + its value's size"
    ~count:(Fixtures.qcheck_count 300)
    (QCheck.make
       ~print:(fun (row, v) -> print_row row ^ " + " ^ V.to_string v)
       QCheck.Gen.(pair gen_row (gen_value 3)))
    (fun (row, v) ->
      Row.byte_size (append row [ ("new", v) ])
      = Row.byte_size row + 8 + V.byte_size v)

let prop_index_column =
  QCheck.Test.make ~name:"an index column adds 16" ~count:(Fixtures.qcheck_count 300)
    (QCheck.make
       ~print:(fun (row, i) -> print_row row ^ Printf.sprintf " + %d" i)
       QCheck.Gen.(pair gen_row (oneof [ int; return min_int; return max_int ])))
    (fun (row, i) ->
      Row.byte_size (append row [ ("id", V.Int i) ]) = Row.byte_size row + 16)

let prop_join_rows =
  QCheck.Test.make ~name:"a joined row is the sum of its sides" ~count:(Fixtures.qcheck_count 300)
    (QCheck.make
       ~print:(fun (a, b) -> print_row a ^ " @ " ^ print_row b)
       QCheck.Gen.(pair gen_row gen_row))
    (fun (a, b) ->
      Row.byte_size (append a (fields_of b)) = Row.byte_size a + Row.byte_size b)

(* ------------------------------------------------------------------ *)
(* The kernel size contract. The executor accounts every partition from
   the size its kernel returns, never re-walking rows, so each kernel's
   size must be the [Row.byte_size] sum of its rows — both halves of a
   skew split included. Row-wise kernels must also run the same on any
   split of their input, as partitions split it. *)

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
let right_names = [| "rk"; "w" |]

let gen_left_row =
  QCheck.Gen.(
    map
      (fun (k, b, t, n, v) ->
        Row.make left_names [| k; b; V.Tuple [ ("items", t); ("f", v) ]; n; v |])
      (tup5 gen_key gen_bag gen_bag gen_num (gen_value 2)))

let gen_right_row =
  QCheck.Gen.(map2 (fun k w -> Row.make right_names [| k; w |]) gen_key (gen_value 2))

let arbitrary_kernel_input =
  let print_rows rows = String.concat "\n" (List.map print_row (Array.to_list rows)) in
  QCheck.make
    ~print:(fun (l, r, cut) ->
      Printf.sprintf "left:\n%s\nright:\n%s\nsplit at %d" (print_rows l)
        (print_rows r) cut)
    QCheck.Gen.(
      let* l = array_size (int_bound 12) gen_left_row in
      let* r = array_size (int_bound 8) gen_right_row in
      let* cut = int_bound (Array.length l) in
      return (l, r, cut))

(* the kernels that work row by row, over a fixed build side *)
let row_kernels rrows =
  let index = K.index [ col "rk" ] rrows in
  let join kind = K.join ~lkey:[ col "k" ] ~kind ~rcols:[ "rk"; "w" ] index in
  [
    ("select", K.select (S.Not (S.IsNull (col "v"))));
    ("project", K.project [ ("k", col "k"); ("x", S.MkTuple [ ("v", col "v") ]) ]);
    ("join", join Op.Inner);
    ("left-outer join", join Op.LeftOuter);
    ("unnest", K.unnest ~path:[ "b" ] ~binder:"i" ~outer:false ~drop:false);
    ("outer unnest, drop", K.unnest ~path:[ "b" ] ~binder:"i" ~outer:true ~drop:true);
    ("unnest a field, drop",
      K.unnest ~path:[ "t"; "items" ] ~binder:"i" ~outer:true ~drop:true);
    ("align", K.align [ "v"; "k"; "missing" ]);
  ]

let all_kernels rrows =
  let index = K.index [ col "rk" ] rrows in
  let heavy = K.KeyTbl.create 4 in
  List.iter (fun k -> K.KeyTbl.replace heavy [ k ] ()) [ V.Int 1; V.Bag [ V.Int 1; V.Int 2 ] ];
  let split rows = K.split_by_keys [ col "k" ] heavy (K.sized rows) in
  let present = S.Not (S.IsNull (col "v")) in
  row_kernels rrows
  @ [
      ("cogroup",
        K.cogroup ~lkey:[ col "k" ] ~kind:Op.LeftOuter ~rcols:[ "rk"; "w" ]
          ~keys:[ ("k", col "k") ] ~item:(col "w")
          ~presence:(S.Not (S.IsNull (col "w"))) ~out:"ws" index);
      ("product", fun rows -> K.product (K.sized rows) (K.sized rrows));
      ("dedup", K.dedup);
      ("split, light side", fun rows -> fst (split rows));
      ("split, heavy side", fun rows -> snd (split rows));
      ("nest_bag",
        K.nest_bag ~keys:[ ("k", col "k") ] ~agg_keys:[] ~item:(col "v")
          ~presence:present ~out:"vs");
      ("nest_bag by key",
        K.nest_bag ~keys:[ ("k", col "k") ] ~agg_keys:[ ("b", col "b") ]
          ~item:(col "v") ~presence:present ~out:"vs");
      ("nest_sum",
        K.nest_sum ~keys:[ ("k", col "k") ] ~agg_keys:[ ("b", col "b") ]
          ~aggs:[ ("s", col "n") ] ~presence:present);
      ("global nest_sum",
        K.nest_sum ~keys:[] ~agg_keys:[] ~aggs:[ ("s", col "n") ] ~presence:present);
    ]

let bytes_of rows = Array.fold_left (fun acc r -> acc + Row.byte_size r) 0 rows

let prop_kernel_sizes =
  QCheck.Test.make ~name:"every kernel returns the byte-size sum of its rows"
    ~count:(Fixtures.qcheck_count 300) arbitrary_kernel_input
    (fun (lrows, rrows, _) ->
      List.for_all
        (fun (name, kernel) ->
          let rows, bytes = kernel lrows in
          bytes = bytes_of rows
          || QCheck.Test.fail_reportf "%s: returned %d, rows sum to %d" name
               bytes (bytes_of rows))
        (all_kernels rrows))

let same_rows a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun r s -> V.equal (V.Tuple (fields_of r)) (V.Tuple (fields_of s))) a b

let prop_kernel_chunks =
  QCheck.Test.make
    ~name:"row-wise kernels: two chunks concatenated = the whole input"
    ~count:(Fixtures.qcheck_count 300) arbitrary_kernel_input
    (fun (lrows, rrows, cut) ->
      let a = Array.sub lrows 0 cut
      and b = Array.sub lrows cut (Array.length lrows - cut) in
      List.for_all
        (fun (name, kernel) ->
          let whole, wbytes = kernel lrows in
          let ra, ba = kernel a and rb, bb = kernel b in
          (same_rows whole (Array.append ra rb) && wbytes = ba + bb)
          || QCheck.Test.fail_reportf "%s differs on chunks" name)
        (row_kernels rrows))

(* ------------------------------------------------------------------ *)
(* Schema switches. Kernels and compiled expressions resolve columns once
   per row schema and reuse that work while the schema stays the same
   ([Row.by_schema]), so an input whose rows switch between column orders
   must still be read by name. Every kernel but dedup — whose row
   equality includes column order — returns the same rows, compared by
   column name, with the same size, as on the input in one order. *)

let reversed names = Array.of_list (List.rev (Array.to_list names))
let left_reversed = reversed left_names
let right_reversed = reversed right_names

(* the rows whose flag is set, their columns reversed over a shared schema *)
let mix names flags rows =
  Array.mapi
    (fun i (row : Row.t) -> if flags.(i) then Row.make names (reversed row.vals) else row)
    rows

let by_name row =
  V.Tuple (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) (fields_of row))

let same_by_name a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun r s -> V.equal (by_name r) (by_name s)) a b

(* left rows number at most 12, right rows at most 8 *)
let arbitrary_mixed_input =
  QCheck.pair arbitrary_kernel_input
    (QCheck.array_of_size (QCheck.Gen.return 12) QCheck.bool)

let prop_kernel_schema_switch =
  QCheck.Test.make ~name:"kernels read inputs mixing two column orders by name"
    ~count:(Fixtures.qcheck_count 300) arbitrary_mixed_input
    (fun ((lrows, rrows, _), flags) ->
      let mixed_r = mix right_reversed flags rrows in
      let kernels rrows = List.filter (fun (name, _) -> name <> "dedup") (all_kernels rrows) in
      List.for_all2
        (fun (name, uniform) (_, mixed) ->
          let rows, bytes = uniform lrows
          and mrows, mbytes = mixed (mix left_reversed flags lrows) in
          (same_by_name rows mrows && bytes = mbytes)
          || QCheck.Test.fail_reportf "%s differs on mixed column orders" name)
        (kernels rrows) (kernels mixed_r))

let prop_compiled_schema_switch =
  QCheck.Test.make ~name:"one compiled expression = a fresh compile per row, over mixed orders"
    ~count:(Fixtures.qcheck_count 300) arbitrary_mixed_input
    (fun ((lrows, _, _), flags) ->
      let rows = mix left_reversed flags lrows in
      List.for_all
        (fun e ->
          let compiled = S.compile e in
          Array.for_all (fun row -> V.equal (compiled row) (S.compile e row)) rows
          || QCheck.Test.fail_reportf "%s differs" (Fmt.to_to_string S.pp e))
        [ col "k"; col "v"; S.path "t" [ "items" ]; S.path "t" [ "f" ];
          S.MkTuple [ ("v", col "v"); ("k", col "k"); ("n", col "n") ];
          S.IsNull (col "b"); S.Cmp (Nrc.Expr.Eq, col "k", col "n");
          S.MkLabel { site = 1; args = [ col "n"; col "k" ] } ])

(* ------------------------------------------------------------------ *)
(* Allocation. Compiled column reads, null tests and comparisons run once
   per row in every key, join and selection, so over rows of one schema
   they allocate nothing per row: a field lookup builds no closure and a
   boolean result is a shared constant. *)

let test_compiled_allocation () =
  let n = 10_000 in
  let names = [| "t" |] in
  let rows =
    Array.init n (fun i ->
        Row.make names [| tup [ ("a", V.Int i); ("b", V.Int (i mod 3)); ("f", V.Str "x") ] |])
  in
  List.iter
    (fun e ->
      let f = S.compile e in
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
   {!Row.array_of_list}). Each case builds its 1,000-row input right after
   a collection, so the input is young, as a partition fresh from the
   previous kernel is, and allocates far less than a minor heap. A major
   cycle that ends mid-case also empties the minor heaps, so a case fails
   only when three attempts in a row each saw a collection; a forced one
   happens on every attempt. *)
let test_no_forced_minor () =
  let n = 1000 in
  let always = S.Const (V.Bool true) in
  let rows () =
    let names = [| "k"; "n"; "b" |] in
    Row.array_init Row.empty n (fun i ->
        Row.make names [| V.Int (i mod 7); V.Int i; V.Bag [ V.Int i; V.Int (-i) ] |])
  in
  let right () =
    let names = [| "rk"; "r" |] in
    Row.array_init Row.empty 7 (fun k -> Row.make names [| V.Int k; V.Str "r" |])
  in
  let join_args () = K.index [ col "rk" ] (right ()) in
  let lkey = [ col "k" ] and rcols = [ "rk"; "r" ] in
  let items () = List.init n (fun i -> tup [ ("k", V.Int (i mod 7)); ("n", V.Int i) ]) in
  let heavy = K.KeyTbl.create 1 in
  K.KeyTbl.replace heavy [ V.Int 0 ] ();
  let collections kernel =
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.minor_collections in
    kernel ();
    (Gc.quick_stat ()).Gc.minor_collections - before
  in
  List.iter
    (fun (name, kernel) ->
      let rec attempt k =
        match collections kernel with
        | 0 -> ()
        | moved when k = 3 -> Alcotest.failf "%s: %d minor collections" name moved
        | _ -> attempt (k + 1)
      in
      attempt 1)
    [ ("scan", fun () -> ignore (K.scan ~binder:"x" (Row.array_init V.Null n (fun i -> V.Int i))));
      ("add_index", fun () -> ignore (K.add_index ~col:"id" Fun.id (rows ())));
      ("join", fun () ->
        ignore (K.join ~lkey ~kind:Op.Inner ~rcols (join_args ()) (rows ())));
      ("cogroup", fun () ->
        ignore
          (K.cogroup ~lkey ~kind:Op.Inner ~rcols ~keys:[ ("n", col "n") ] ~item:(col "r")
             ~presence:always ~out:"rs" (join_args ()) (rows ())));
      ("product", fun () -> ignore (K.product (rows (), 0) (right (), 0)));
      ("select", fun () -> ignore (K.select always (rows ())));
      ("project", fun () -> ignore (K.project [ ("m", col "n") ] (rows ())));
      ("unnest", fun () ->
        ignore (K.unnest ~path:[ "b" ] ~binder:"x" ~outer:false ~drop:true (rows ())));
      ("dedup", fun () -> ignore (K.dedup (rows ())));
      ("align", fun () -> ignore (K.align [ "n"; "k" ] (rows ())));
      ("values", fun () -> ignore (K.values [ "n"; "k" ] (rows ())));
      ("values of item", fun () ->
        ignore (K.values [ "item" ] (K.project [ ("item", col "n") ] (rows ()) |> fst)));
      ("split_by_keys", fun () ->
        ignore (K.split_by_keys [ col "k" ] heavy (K.sized (rows ()))));
      ("nest_bag", fun () ->
        ignore
          (K.nest_bag ~keys:[ ("n", col "n") ] ~agg_keys:[] ~item:(col "k")
             ~presence:always ~out:"ks" (rows ())));
      ("nest_sum", fun () ->
        ignore
          (K.nest_sum ~keys:[ ("n", col "n") ] ~agg_keys:[] ~aggs:[ ("s", col "k") ]
             ~presence:always (rows ())));
      ("Local_eval scan", fun () ->
        ignore
          (Plan.Local_eval.eval
             (Plan.Local_eval.env_of_list [ ("R", V.Bag (items ())) ])
             (Op.Scan { input = "R"; binder = "x" })));
      ("Dataset.of_bag", fun () ->
        ignore (Exec.Dataset.of_bag ~partitions:1 (V.Bag (items ()))));
      ("Dataset.of_bag_by", fun () ->
        ignore (Exec.Dataset.of_bag_by ~partitions:1 ~key:[ [ "k" ] ] (V.Bag (items ())))) ]

(* ------------------------------------------------------------------ *)
(* The one-pass nest kernels against the two-pass grouping they replaced,
   kept here as the reference: group the rows by G-key, keep each group's
   present members, group those again by the aggregation key, then
   aggregate each member list. Rows, their order, byte sums and the bits
   of every float sum must agree. *)

(* groups by evaluated key tuples, the most recently first-seen key first *)
let group_by_keys key (rows : Row.t list) =
  let tbl = K.KeyTbl.create 16 in
  List.fold_left
    (fun groups row ->
      let kv = key row in
      match K.KeyTbl.find_opt tbl kv with
      | Some cell ->
        cell := row :: !cell;
        groups
      | None ->
        let cell = ref [ row ] in
        K.KeyTbl.add tbl kv cell;
        (kv, cell) :: groups)
    [] rows
  |> List.map (fun (kv, cell) -> (kv, List.rev !cell))

let reference_nest ~keys ~agg_keys ~presence ~aggs ~aggregate ~empty ~global_empty rows =
  let key = K.compile_keys (List.map snd keys)
  and agg_key = K.compile_keys (List.map snd agg_keys)
  and present = S.compile_pred presence in
  let names = Array.of_list (List.map fst keys @ List.map fst agg_keys @ aggs) in
  let out kv akv vs = Row.make names (Array.of_list (kv @ akv @ vs)) in
  let global = keys = [] in
  group_by_keys key (Array.to_list rows)
  |> List.concat_map (fun (kv, members) ->
         match agg_keys, List.filter present members with
         | [], [] when global && not global_empty -> []
         | [], present -> [ out kv [] (aggregate present) ]
         | _, [] -> if global then [] else [ out kv (List.map (fun _ -> V.Null) agg_keys) empty ]
         | _, present ->
           group_by_keys agg_key present
           |> List.map (fun (akv, sub) -> out kv akv (aggregate sub)))
  |> Array.of_list |> K.sized

let reference_nest_bag ~keys ~agg_keys ~item ~presence ~out rows =
  let item = S.compile item in
  reference_nest ~keys ~agg_keys ~presence ~aggs:[ out ] ~global_empty:true rows
    ~aggregate:(fun rs -> [ V.Bag (List.map item rs) ])
    ~empty:[ V.Bag [] ]

let reference_nest_sum ~keys ~agg_keys ~aggs ~presence rows =
  let values = List.map (fun (_, e) -> S.compile e) aggs in
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

let identical_rows ((a, abytes) : K.sized) ((b, bbytes) : K.sized) =
  abytes = bbytes
  && Array.length a = Array.length b
  && Array.for_all2
       (fun (r : Row.t) (s : Row.t) ->
         r.names = s.names && Array.for_all2 identical r.vals s.vals)
       a b

(* two key columns from the small domain (Null and permuted bags
   included), a small int key, two aggregands mixing Int, Real and Null,
   an item and a presence flag that is false or Null for a third of the
   rows *)
let nest_names = [| "k"; "a"; "m"; "n"; "r"; "v"; "p" |]

let gen_nest_row =
  QCheck.Gen.(
    map
      (fun ((k, a, m), (n, r), (v, p)) ->
        Row.make nest_names [| k; a; V.Int m; n; r; v; p |])
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
       ~print:(fun rows -> String.concat "\n" (List.map print_row (Array.to_list rows)))
       QCheck.Gen.(
         frequency [ (1, return [||]); (9, array_size (int_bound 30) gen_nest_row) ]))
    (fun rows ->
      let presence = col "p" and cols = List.map (fun c -> (c, col c)) in
      List.for_all
        (fun (name, keys, agg_keys) ->
          let keys = cols keys and agg_keys = cols agg_keys in
          let aggs = [ ("s", col "n"); ("t", col "r") ] in
          (identical_rows
             (K.nest_bag ~keys ~agg_keys ~item:(col "v") ~presence ~out:"vs" rows)
             (reference_nest_bag ~keys ~agg_keys ~item:(col "v") ~presence ~out:"vs" rows)
          || QCheck.Test.fail_reportf "nest_bag by %s differs" name)
          && (identical_rows
                (K.nest_sum ~keys ~agg_keys ~aggs ~presence rows)
                (reference_nest_sum ~keys ~agg_keys ~aggs ~presence rows)
             || QCheck.Test.fail_reportf "nest_sum by %s differs" name))
        nest_groupings)

(* [Value.hash] ignores bag order, so {1,2} and {2,1} meet in one table
   bucket; key equality keeps them apart *)
let test_nest_permuted_bag_keys () =
  let b12 = V.Bag [ V.Int 1; V.Int 2 ] and b21 = V.Bag [ V.Int 2; V.Int 1 ] in
  check_int "equal hash_key" (K.hash_key [ b12 ]) (K.hash_key [ b21 ]);
  let names = [| "k"; "n" |] in
  let rows = [| Row.make names [| b12; V.Int 1 |]; Row.make names [| b21; V.Int 2 |] |] in
  let always = S.Const (V.Bool true) in
  List.iter
    (fun (name, (out, _)) ->
      check_int (name ^ ": two groups") 2 (Array.length out);
      check (name ^ ": keys in first-seen order, newest first") true
        (V.equal (Row.get out.(0) "k") b21 && V.equal (Row.get out.(1) "k") b12))
    [ ("nest_bag",
        K.nest_bag ~keys:[ ("k", col "k") ] ~agg_keys:[] ~item:(col "n")
          ~presence:always ~out:"ns" rows);
      ("nest_sum",
        K.nest_sum ~keys:[ ("k", col "k") ] ~agg_keys:[] ~aggs:[ ("s", col "n") ]
          ~presence:always rows) ]

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
        Hashtbl.replace env step (V.bag_items expected))
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
        ] );
      ( "row sizes",
        List.map QCheck_alcotest.to_alcotest
          [ prop_append_column; prop_index_column; prop_join_rows ] );
      ( "kernels",
        List.map QCheck_alcotest.to_alcotest
          [ prop_kernel_sizes; prop_kernel_chunks; prop_kernel_schema_switch;
            prop_compiled_schema_switch; prop_nest_oracle ] );
      ( "allocation",
        [ Alcotest.test_case "compiled reads, null tests and comparisons" `Quick
            test_compiled_allocation;
          Alcotest.test_case "no kernel forces a minor collection" `Quick
            test_no_forced_minor ] );
    ]
