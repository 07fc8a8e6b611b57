(** Integration tests for the TPC-H benchmark suite: every (family, level,
    variant) cell must typecheck and produce identical results under the
    reference interpreter, the Standard route, and the Shredded route on a
    small dataset — including skewed data. *)

module V = Nrc.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_scale =
  {
    Tpch.Generator.default_scale with
    customers = 12;
    orders_per_customer = 3;
    lineitems_per_order = 3;
    parts = 16;
    comment_width = 10;
  }

let db = Tpch.Generator.generate small_scale
let skewed_db = Tpch.Generator.generate { small_scale with skew = 3 }

let cluster = { Exec.Config.unbounded with partitions = 5; workers = 3 }
let api_config = { Trance.Api.default_config with cluster }

let families =
  [
    Tpch.Queries.Flat_to_nested;
    Tpch.Queries.Nested_to_nested;
    Tpch.Queries.Nested_to_flat;
  ]

let cell_test ~wide ~family ~level ~db () =
  let prog = Tpch.Queries.program ~wide ~family ~level () in
  let inputs = Tpch.Queries.input_values ~wide ~family ~level db in
  (* typechecks as source NRC *)
  ignore (Nrc.Program.typecheck prog);
  let expected = Nrc.Program.eval_result prog inputs in
  let std =
    Trance.Api.run ~config:api_config ~strategy:Trance.Api.Standard prog inputs
  in
  (match std.Trance.Api.failure with
  | Some f ->
    Alcotest.failf "standard failed: %s" (Trance.Api.failure_message f)
  | None -> ());
  Fixtures.check_bag_equal "standard" expected (Option.get std.Trance.Api.value);
  let shred =
    Trance.Api.run ~config:api_config
      ~strategy:(Trance.Api.Shredded { unshred = true })
      prog inputs
  in
  (match shred.Trance.Api.failure with
  | Some f ->
    Alcotest.failf "shredded failed: %s" (Trance.Api.failure_message f)
  | None -> ());
  Fixtures.check_bag_equal "shredded" expected
    (Option.get shred.Trance.Api.value)

let cell_cases ~db ~tag =
  List.concat_map
    (fun family ->
      List.concat_map
        (fun level ->
          List.map
            (fun wide ->
              Alcotest.test_case
                (Printf.sprintf "%s L%d %s%s"
                   (Tpch.Queries.family_name family)
                   level
                   (if wide then "wide" else "narrow")
                   tag)
                `Quick
                (cell_test ~wide ~family ~level ~db))
            [ false; true ])
        [ 0; 1; 2; 3; 4 ])
    families

(* ------------------------------------------------------------------ *)
(* Generator sanity *)

let test_generator_shapes () =
  check_int "regions" 5 (List.length (V.bag_items db.Tpch.Generator.region));
  check_int "nations" 25 (List.length (V.bag_items db.Tpch.Generator.nation));
  check_int "customers" 12
    (List.length (V.bag_items db.Tpch.Generator.customer));
  check_int "orders" 36 (List.length (V.bag_items db.Tpch.Generator.orders));
  check_int "lineitems" 108
    (List.length (V.bag_items db.Tpch.Generator.lineitem))

let count_per_key field bag =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let k = V.field row field in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    (V.bag_items bag);
  Hashtbl.fold (fun _ c acc -> max c acc) tbl 0

let test_skew_effect () =
  let big = { small_scale with customers = 100; skew = 0 } in
  let big_skew = { big with skew = 4 } in
  let d0 = Tpch.Generator.generate big in
  let d4 = Tpch.Generator.generate big_skew in
  let m0 = count_per_key "ckey" d0.Tpch.Generator.orders in
  let m4 = count_per_key "ckey" d4.Tpch.Generator.orders in
  check "skew concentrates orders on few customers" true (m4 > 3 * m0);
  let p0 = count_per_key "pkey" d0.Tpch.Generator.lineitem in
  let p4 = count_per_key "pkey" d4.Tpch.Generator.lineitem in
  check "skew concentrates lineitems on few parts" true (p4 > 3 * p0)

let test_nested_input_matches_query () =
  (* the generator's directly-built nested input equals the evaluated
     flat-to-nested query result, at every level, on uniform and skewed
     data *)
  List.iter
    (fun (db, tag) ->
      List.iter
        (fun level ->
          List.iter
            (fun wide ->
              let q = Tpch.Queries.flat_to_nested ~wide ~level () in
              let expected =
                Nrc.Eval.eval
                  (Nrc.Eval.env_of_list (Tpch.Generator.flat_inputs db))
                  q
              in
              let built = Tpch.Generator.nested_input ~wide ~level db in
              Fixtures.check_bag_equal
                (Printf.sprintf "nested input L%d wide=%b%s" level wide tag)
                expected built)
            [ false; true ])
        [ 0; 1; 2; 3; 4 ])
    [ (db, ""); (skewed_db, " skew=3") ]

let test_zipf_determinism () =
  let a = Tpch.Generator.generate small_scale in
  let b = Tpch.Generator.generate small_scale in
  check "generator is deterministic" true
    (V.bag_equal a.Tpch.Generator.lineitem b.Tpch.Generator.lineitem)

(* Every generated input at two scales, two seeds and skews 0 and 4,
   pinned by a digest of its bytes. [Value.hash] would not do: a bag's
   hash sums its items, blind to their order, which places each item on
   its partition. *)
let generator_golden =
  [ ((12, 7, 0), "64a8ee9a45e4fbb8b2a6d0de5dd2ae7e");
    ((12, 7, 4), "fe42587fe8dabfe1215e7f9db9b50618");
    ((12, 11, 0), "74a813ae2631eb6c9bd4f449d580e4dd");
    ((12, 11, 4), "a1dde0f0338d8d7766b23ce77e831b95");
    ((40, 7, 0), "e50d8ff8b18de4652ec5e119c2dbb896");
    ((40, 7, 4), "998dbc3bd12086e4631feaf67d521772");
    ((40, 11, 0), "dfe5fbdb5b2e96b9ffa1080a8fb10716");
    ((40, 11, 4), "ff4cf7760f3ff7a44e98b740d52464ba") ]

let test_generator_digests () =
  List.iter
    (fun ((customers, seed, skew), expected) ->
      let db = Tpch.Generator.generate { small_scale with customers; seed; skew } in
      let nested level wide = Tpch.Generator.nested_input ~wide ~level db in
      let inputs =
        ( Tpch.Generator.flat_inputs db,
          List.map (fun level -> (nested level false, nested level true)) [ 0; 1; 2; 3; 4 ] )
      in
      Alcotest.(check string)
        (Printf.sprintf "customers=%d seed=%d skew=%d" customers seed skew)
        expected
        (Digest.to_hex (Digest.string (Marshal.to_string inputs [ Marshal.No_sharing ]))))
    generator_golden

let () =
  Alcotest.run "tpch"
    [
      ( "generator",
        [
          Alcotest.test_case "cardinalities" `Quick test_generator_shapes;
          Alcotest.test_case "skew shapes" `Quick test_skew_effect;
          Alcotest.test_case "nested input = flat-to-nested query" `Quick
            test_nested_input_matches_query;
          Alcotest.test_case "determinism" `Quick test_zipf_determinism;
          Alcotest.test_case "generated inputs pinned" `Quick test_generator_digests;
        ] );
      ("cells (uniform)", cell_cases ~db ~tag:"");
      ("cells (skewed)", cell_cases ~db:skewed_db ~tag:" skew=3");
    ]
