(** Unit tests for the NRC substrate: values, types, type checker, reference
    interpreter, and normalization. Includes the paper's Example 1 evaluated
    end-to-end as a golden test.

    Query constructions use local opens [B.(...)] of {!Nrc.Builder} because
    the builder intentionally shadows comparison and arithmetic operators. *)

module B = Nrc.Builder
module E = Nrc.Expr
module T = Nrc.Types
module V = Nrc.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let tc_ok name env e expected_ty () =
  let ty = Nrc.Typecheck.check_source (Nrc.Typecheck.env_of_list env) e in
  check name true (T.equal ty expected_ty)

let tc_fail name env e () =
  match Nrc.Typecheck.check_source (Nrc.Typecheck.env_of_list env) e with
  | _ -> Alcotest.failf "%s: expected Type_error" name
  | exception Nrc.Typecheck.Type_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Value tests *)

let test_value_compare () =
  check "int order" true (V.compare (V.Int 1) (V.Int 2) < 0);
  check "tuple order by field" true
    (V.compare (V.Tuple [ ("a", V.Int 1) ]) (V.Tuple [ ("a", V.Int 2) ]) < 0);
  check "bag equal unordered" true
    (V.bag_equal (V.Bag [ V.Int 1; V.Int 2 ]) (V.Bag [ V.Int 2; V.Int 1 ]));
  check "bag multiplicity matters" false
    (V.bag_equal (V.Bag [ V.Int 1; V.Int 1 ]) (V.Bag [ V.Int 1 ]));
  check "label equality by site+args" true
    (V.equal
       (V.label ~site:3 [ V.Int 7 ])
       (V.label ~site:3 [ V.Int 7 ]));
  check "label site distinguishes" false
    (V.equal
       (V.label ~site:3 [ V.Int 7 ])
       (V.label ~site:4 [ V.Int 7 ]))

let test_value_dedup () =
  let items = [ V.Int 1; V.Int 2; V.Int 1; V.Int 3; V.Int 2 ] in
  check_int "dedup length" 3 (List.length (V.dedup items));
  check "dedup keeps first occurrence order" true
    (V.dedup items = [ V.Int 1; V.Int 2; V.Int 3 ])

let test_value_size () =
  check "string size grows" true
    (V.byte_size (V.Str "hello world") > V.byte_size (V.Str "hi"));
  check "bag size sums" true
    (V.byte_size (V.Bag [ V.Int 1; V.Int 2 ]) > V.byte_size (V.Bag [ V.Int 1 ]));
  check_int "int size" 8 (V.byte_size (V.Int 42))

let test_default_values () =
  check "int default" true (V.equal (V.default_of_type T.int_) (V.Int 0));
  check "tuple default" true
    (V.equal
       (V.default_of_type (T.tuple [ ("a", T.int_); ("b", T.string_) ]))
       (V.Tuple [ ("a", V.Int 0); ("b", V.Str "") ]));
  check "bag default" true (V.equal (V.default_of_type (T.bag T.int_)) (V.Bag []))

(* ------------------------------------------------------------------ *)
(* Types *)

let test_types () =
  check "flatness of scalar" true (T.is_flat T.int_);
  check "flatness of label" true (T.is_flat T.TLabel);
  check "bag not flat" false (T.is_flat (T.bag T.int_));
  check "flat bag" true (T.is_flat_bag (T.bag (T.tuple [ ("a", T.int_) ])));
  check "nested bag not flat bag" false
    (T.is_flat_bag (T.bag (T.tuple [ ("a", T.bag T.int_) ])));
  check_int "depth of COP" 3 (T.depth Fixtures.cop_ty);
  check_int "depth of Part" 1 (T.depth Fixtures.part_ty)

(* ------------------------------------------------------------------ *)
(* Type checker *)

let example1_ty =
  T.bag
    (T.tuple
       [
         ("cname", T.string_);
         ( "corders",
           T.bag
             (T.tuple
                [
                  ("odate", T.date);
                  ( "oparts",
                    T.bag (T.tuple [ ("pname", T.string_); ("total", T.real) ]) );
                ]) );
       ])

let flatten_ty =
  T.bag
    (T.tuple
       [ ("cname", T.string_); ("odate", T.date); ("pid", T.int_); ("qty", T.real) ])

(* [Value.compare] orders an [Int] and a [Real] by constructor, not by
   magnitude, so a comparison between them is a type error; same-typed
   numeric comparisons stay well typed *)
let test_mixed_compare () =
  let price_above c =
    E.ForUnion
      ( "p", E.Var "Part",
        E.If (E.Cmp (E.Gt, E.Proj (E.Var "p", "price"), c),
              E.Singleton (E.Record [ ("pid", E.Proj (E.Var "p", "pid")) ]), None) )
  in
  List.iter
    (fun op ->
      tc_fail "int with real" [] (E.Cmp (op, E.int_ 5, E.real 2.0)) ();
      tc_fail "real with int" [] (E.Cmp (op, E.real 2.0, E.int_ 5)) ())
    E.[ Eq; Ne; Lt; Le; Gt; Ge ];
  (match
     Nrc.Typecheck.check_source (Nrc.Typecheck.env_of_list Fixtures.inputs_ty)
       (price_above (E.int_ 5))
   with
  | _ -> Alcotest.fail "price > 5: expected Type_error"
  | exception Nrc.Typecheck.Type_error m -> check_str "message" "cannot compare real with int" m);
  tc_ok "price > 5.0" Fixtures.inputs_ty (price_above (E.real 5.0))
    (T.bag (T.tuple [ ("pid", T.int_) ])) ();
  tc_ok "int with int" [] (E.Cmp (E.Lt, E.int_ 1, E.int_ (-1))) T.bool_ ()

let typecheck_tests =
  [
    Alcotest.test_case "example1 types" `Quick
      (tc_ok "example1" Fixtures.inputs_ty Fixtures.example1 example1_ty);
    Alcotest.test_case "flatten types" `Quick
      (tc_ok "flatten" Fixtures.inputs_ty Fixtures.flatten_query flatten_ty);
    Alcotest.test_case "unbound variable rejected" `Quick
      (tc_fail "unbound" [] (E.Var "nope"));
    Alcotest.test_case "dedup of nested bag rejected" `Quick
      (tc_fail "dedup nested" Fixtures.inputs_ty (E.Dedup (E.Var "COP")));
    Alcotest.test_case "groupBy nested key rejected" `Quick
      (tc_fail "groupBy nested key" Fixtures.inputs_ty
         (B.group_by [ "corders" ] (E.Var "COP")));
    Alcotest.test_case "sumBy non-numeric value rejected" `Quick
      (tc_fail "sumBy non-numeric" Fixtures.inputs_ty
         B.(
           sum_by ~keys:[ "pid" ] ~values:[ "pname" ]
             (for_ "p" (input "Part") (fun p ->
                  sng (record [ ("pid", p #. "pid"); ("pname", p #. "pname") ])))));
    Alcotest.test_case "union type mismatch rejected" `Quick
      (tc_fail "union mismatch" Fixtures.inputs_ty
         (E.Union (E.Var "COP", E.Var "Part")));
    Alcotest.test_case "bags of bags rejected" `Quick
      (tc_fail "bag of bag" Fixtures.inputs_ty
         (E.Singleton (E.Singleton (E.int_ 1))));
    Alcotest.test_case "labels rejected in source" `Quick
      (tc_fail "labels in source" [] (E.NewLabel { site = 0; args = [] }));
    Alcotest.test_case "if branches must agree" `Quick
      (tc_fail "if mismatch" [] (E.If (E.bool_ true, E.int_ 1, Some (E.str "x"))));
    Alcotest.test_case "int compared with real rejected" `Quick test_mixed_compare;
  ]

(* ------------------------------------------------------------------ *)
(* Interpreter *)

let eval_in env e = Nrc.Eval.eval (Nrc.Eval.env_of_list env) e

let test_eval_basics () =
  check "arith" true
    (V.equal (eval_in [] B.(int_ 2 + int_ 3 * int_ 4)) (V.Int 14));
  check "real promote" true
    (V.equal (eval_in [] B.(int_ 2 + real 0.5)) (V.Real 2.5));
  check "cmp dates" true (V.equal (eval_in [] B.(date 5 < date 9)) (V.Bool true));
  check "let" true
    (V.equal (eval_in [] B.(let_ "x" (int_ 21) (fun x -> x + x))) (V.Int 42));
  check "if-then empty bag" true
    (V.equal (eval_in [] B.(where (bool_ false) (sng (int_ 1)))) (V.Bag []));
  check "union bags" true
    (V.bag_equal
       (eval_in [] B.(sng (int_ 1) ++ sng (int_ 2)))
       (V.Bag [ V.Int 1; V.Int 2 ]));
  (* a zero divisor, int or real, is a typed failure naming the division *)
  List.iter
    (fun (what, e, text) ->
      match eval_in [ ("x", V.Tuple [ ("n", V.Int 0) ]) ] e with
      | v -> Alcotest.failf "%s answers %a" what V.pp v
      | exception Nrc.Eval.Eval_error m -> Alcotest.(check string) what text m)
    [ ("int division by zero", B.(int_ 1 / int_ 0), "division by zero: 1 / 0");
      ("real division by zero", B.(real 1.5 / real 0.), "division by zero: 1.5 / 0.0");
      ("division by a zero field", B.(int_ 7 / (input "x") #. "n"), "division by zero: 7 / x.n") ]

let test_eval_get () =
  check "get singleton" true
    (V.equal (eval_in [] B.(get (sng (int_ 7)))) (V.Int 7));
  check "get multi falls back to default" true
    (V.equal (eval_in [] B.(get (sng (int_ 7) ++ sng (int_ 8)))) (V.Int 0))

let test_eval_groupby () =
  let rows =
    B.(
      sng (record [ ("k", int_ 1); ("v", int_ 10) ])
      ++ sng (record [ ("k", int_ 1); ("v", int_ 20) ])
      ++ sng (record [ ("k", int_ 2); ("v", int_ 30) ]))
  in
  let grouped = eval_in [] (B.group_by [ "k" ] rows) in
  let expected =
    V.Bag
      [
        V.Tuple
          [
            ("k", V.Int 1);
            ( "group",
              V.Bag [ V.Tuple [ ("v", V.Int 10) ]; V.Tuple [ ("v", V.Int 20) ] ] );
          ];
        V.Tuple [ ("k", V.Int 2); ("group", V.Bag [ V.Tuple [ ("v", V.Int 30) ] ]) ];
      ]
  in
  Fixtures.check_bag_equal "groupBy" expected grouped;
  let summed = eval_in [] (B.sum_by ~keys:[ "k" ] ~values:[ "v" ] rows) in
  Fixtures.check_bag_equal "sumBy"
    (V.Bag
       [
         V.Tuple [ ("k", V.Int 1); ("v", V.Int 30) ];
         V.Tuple [ ("k", V.Int 2); ("v", V.Int 30) ];
       ])
    summed

let test_eval_example1 () =
  let result = Fixtures.eval_ref Fixtures.example1 in
  (* alice's order 100: widget = 2.0*10 + 1.5*10 = 35, gadget = 1.0*20 = 20 *)
  let expect_alice_100 =
    V.Bag
      [
        V.Tuple [ ("pname", V.Str "widget"); ("total", V.Real 35.0) ];
        V.Tuple [ ("pname", V.Str "gadget"); ("total", V.Real 20.0) ];
      ]
  in
  match result with
  | V.Bag custs ->
    check_int "five customers out" 5 (List.length custs);
    let alice =
      List.find
        (fun c ->
          V.equal (V.field c "cname") (V.Str "alice")
          && List.length (V.bag_items (V.field c "corders")) = 2)
        custs
    in
    let o100 =
      List.find
        (fun o -> V.equal (V.field o "odate") (V.Date 100))
        (V.bag_items (V.field alice "corders"))
    in
    Fixtures.check_bag_equal "alice order 100 oparts" expect_alice_100
      (V.field o100 "oparts");
    let bob = List.find (fun c -> V.equal (V.field c "cname") (V.Str "bob")) custs in
    let o102 = List.hd (V.bag_items (V.field bob "corders")) in
    check "bob empty oparts" true (V.equal (V.field o102 "oparts") (V.Bag []));
    let carol =
      List.find (fun c -> V.equal (V.field c "cname") (V.Str "carol")) custs
    in
    check "carol empty corders" true (V.equal (V.field carol "corders") (V.Bag []));
    let dave = List.find (fun c -> V.equal (V.field c "cname") (V.Str "dave")) custs in
    let o103 = List.hd (V.bag_items (V.field dave "corders")) in
    check "dave unmatched part yields empty" true
      (V.equal (V.field o103 "oparts") (V.Bag []))
  | v -> Alcotest.failf "expected bag, got %a" V.pp v

let test_eval_nested_to_flat () =
  let result = Fixtures.eval_ref Fixtures.nested_to_flat in
  (* alice: 35 + 20 + (pid 3 -> widget 4.0*30=120) + second alice (2.5*20=50)
     = 225 under a single cname key *)
  Fixtures.check_bag_equal "nested_to_flat"
    (V.Bag [ V.Tuple [ ("cname", V.Str "alice"); ("total", V.Real 225.0) ] ])
    result

(* ------------------------------------------------------------------ *)
(* Normalization and substitution *)

let test_norm () =
  let e = E.Let ("x", E.int_ 1, E.Var "x") in
  check "let inlined" true (Nrc.Norm.inline_lets e = E.int_ 1);
  let e2 = E.Proj (E.record [ ("a", E.int_ 5); ("b", E.int_ 6) ], "a") in
  check "record beta" true (Nrc.Norm.simplify e2 = E.int_ 5);
  let e3 = E.ForUnion ("x", E.sng (E.int_ 3), E.sng (E.Var "x")) in
  check "singleton generator" true (Nrc.Norm.simplify e3 = E.sng (E.int_ 3));
  (* substitution is capture avoiding *)
  let inner = E.ForUnion ("y", E.Var "R", E.sng (E.Var "x")) in
  let substituted = E.subst "x" (E.Var "y") inner in
  (match substituted with
  | E.ForUnion (y', _, E.Singleton (E.Var v)) ->
    check "no capture" true (v = "y" && y' <> "y")
  | _ -> Alcotest.fail "unexpected shape");
  let fv = E.free_vars Fixtures.example1 in
  check "fv of example1" true (E.VSet.equal fv (E.VSet.of_list [ "COP"; "Part" ]))

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_pp_smoke () =
  let s = E.to_string Fixtures.example1 in
  check "pp mentions sumBy" true (contains_substring s "sumBy");
  check "pp mentions for" true (contains_substring s "for cop in COP");
  let ts = T.to_string Fixtures.cop_ty in
  check "cop type pp mentions Bag" true (contains_substring ts "Bag");
  check_str "scalar type pp" "int" (T.to_string T.int_)

(* ------------------------------------------------------------------ *)
(* Property tests on values *)

let rec gen_value depth =
  QCheck.Gen.(
    if depth = 0 then
      oneof
        [
          map (fun i -> V.Int i) small_int;
          map (fun s -> V.Str s) (string_size (int_bound 6));
          map (fun b -> V.Bool b) bool;
        ]
    else
      oneof
        [
          map (fun i -> V.Int i) small_int;
          map (fun vs -> V.Bag vs) (list_size (int_bound 4) (gen_value (depth - 1)));
          map
            (fun vs ->
              V.Tuple (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) vs))
            (list_size (int_bound 3) (gen_value (depth - 1)));
        ])

let arbitrary_value = QCheck.make ~print:V.to_string (gen_value 3)

let prop_compare_total =
  QCheck.Test.make ~name:"Value.compare is antisymmetric"
    ~count:(Fixtures.qcheck_count 200)
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      let c1 = V.compare a b and c2 = V.compare b a in
      (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0))

let prop_canonicalize_idempotent =
  QCheck.Test.make ~name:"canonicalize is idempotent"
    ~count:(Fixtures.qcheck_count 200) arbitrary_value
    (fun v -> V.equal (V.canonicalize (V.canonicalize v)) (V.canonicalize v))

let prop_compare_reflexive =
  QCheck.Test.make ~name:"compare v v = 0 and hash is stable"
    ~count:(Fixtures.qcheck_count 200)
    arbitrary_value (fun v -> V.compare v v = 0 && V.hash v = V.hash v)

let prop_default_inhabits =
  QCheck.Test.make ~name:"default_of_type is not Null"
    ~count:(Fixtures.qcheck_count 100)
    arbitrary_value (fun v ->
      match V.default_of_type (V.type_of v) with V.Null -> false | _ -> true)

let () =
  Alcotest.run "nrc"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "dedup" `Quick test_value_dedup;
          Alcotest.test_case "byte size" `Quick test_value_size;
          Alcotest.test_case "defaults" `Quick test_default_values;
        ] );
      ("types", [ Alcotest.test_case "predicates" `Quick test_types ]);
      ("typecheck", typecheck_tests);
      ( "eval",
        [
          Alcotest.test_case "basics" `Quick test_eval_basics;
          Alcotest.test_case "get" `Quick test_eval_get;
          Alcotest.test_case "groupBy/sumBy" `Quick test_eval_groupby;
          Alcotest.test_case "example1 (paper)" `Quick test_eval_example1;
          Alcotest.test_case "nested-to-flat" `Quick test_eval_nested_to_flat;
        ] );
      ( "norm",
        [
          Alcotest.test_case "rewrites" `Quick test_norm;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_compare_total;
          QCheck_alcotest.to_alcotest prop_canonicalize_idempotent;
          QCheck_alcotest.to_alcotest prop_compare_reflexive;
          QCheck_alcotest.to_alcotest prop_default_inhabits;
        ] );
    ]
