(** Tests for the cost estimator: statistics collection, cardinality
    propagation sanity, monotonicity in input size, and — the point of the
    exercise — agreement of the standard-vs-shredded recommendation with
    the simulator's measured ranking on the TPC-H benchmark cells. *)

module V = Nrc.Value
module Op = Plan.Op
module S = Plan.Sexpr

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let test_stats_of_bag () =
  let t = Trance.Cost.stats_of_bag Fixtures.cop_value in
  check "rows" true (t.Trance.Cost.rows = 5.);
  check "row bytes positive" true (t.Trance.Cost.row_bytes > 0.);
  (* fanouts: 5 orders over 5 customers = 1.0; 6 parts over 5 orders = 1.2 *)
  check "corders fanout" true
    (List.assoc [ "corders" ] t.Trance.Cost.fanouts = 1.0);
  check "oparts fanout" true
    (List.assoc [ "corders"; "oparts" ] t.Trance.Cost.fanouts = 1.2);
  let empty = Trance.Cost.stats_of_bag (V.Bag []) in
  check "empty bag" true (empty.Trance.Cost.rows = 0.)

let test_estimate_scan_select () =
  let stats = Trance.Cost.stats_of_inputs Fixtures.inputs_val in
  let scan = Op.Scan { input = "Part"; binder = "p" } in
  let e = Trance.Cost.estimate stats scan in
  check "scan rows" true (e.Trance.Cost.out_rows = 4.);
  let sel =
    Op.Select (S.Cmp (Nrc.Expr.Eq, S.path "p" [ "pid" ], S.Const (V.Int 1)), scan)
  in
  let e2 = Trance.Cost.estimate stats sel in
  check "selection reduces rows" true
    (e2.Trance.Cost.out_rows < e.Trance.Cost.out_rows);
  check "selection adds cpu" true (e2.Trance.Cost.cpu > e.Trance.Cost.cpu)

let test_estimate_monotone_in_size () =
  (* same query, bigger data -> bigger estimate *)
  let q = Fixtures.nested_to_flat in
  let plan = Trance.Unnest.translate ~tenv:Fixtures.inputs_ty q in
  let cost inputs =
    let e = Trance.Cost.estimate (Trance.Cost.stats_of_inputs inputs) plan in
    e.Trance.Cost.cpu +. e.Trance.Cost.net
  in
  let small = cost Fixtures.inputs_val in
  let db =
    Tpch.Generator.generate
      { Tpch.Generator.default_scale with customers = 50; parts = 80 }
  in
  ignore db;
  (* triple the COP input *)
  let big_cop =
    V.Bag
      (List.concat
         [ V.bag_items Fixtures.cop_value;
           V.bag_items Fixtures.cop_value;
           V.bag_items Fixtures.cop_value ])
  in
  let big = cost [ ("COP", big_cop); ("Part", Fixtures.part_value) ] in
  check "monotone in input size" true (big > small)

let test_fanout_drives_unnest () =
  let stats = Trance.Cost.stats_of_inputs Fixtures.inputs_val in
  let scan = Op.Scan { input = "COP"; binder = "cop" } in
  let unnest =
    Op.Unnest
      { input = scan; path = [ "cop"; "corders" ]; binder = "co";
        outer = false; drop = false }
  in
  let e = Trance.Cost.estimate stats unnest in
  (* 5 customers x fanout 1.0 *)
  check "unnest rows use measured fanout" true (e.Trance.Cost.out_rows = 5.)

(* ------------------------------------------------------------------ *)
(* Recommendation vs. measurement *)

let measure strategy prog inputs =
  let config =
    { Trance.Api.default_config with
      cluster = { Exec.Config.unbounded with partitions = 40; workers = 10;
                  broadcast_limit = 2048 };
      collect = false;
      optimizer =
        { Plan.Optimize.default with unique_keys = [ ("Part", [ "pkey" ]) ] } }
  in
  let r = Trance.Api.run ~config ~strategy prog inputs in
  (Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.sim_seconds

let test_recommendation_matches_simulator () =
  let db =
    Tpch.Generator.generate
      { Tpch.Generator.default_scale with customers = 120; parts = 200 }
  in
  let agree = ref 0 and total = ref 0 in
  List.iter
    (fun (family, level) ->
      let prog = Tpch.Queries.program ~family ~level () in
      let inputs = Tpch.Queries.input_values ~family ~level db in
      let rec_ = Trance.Cost.recommend prog inputs in
      let t_std = measure Trance.Api.Standard prog inputs in
      let t_shred =
        measure (Trance.Api.Shredded { unshred = false }) prog inputs
      in
      let measured_pick = if t_shred <= t_std then `Shredded else `Standard in
      incr total;
      if measured_pick = rec_.Trance.Cost.pick then incr agree)
    [
      (Tpch.Queries.Nested_to_nested, 1);
      (Tpch.Queries.Nested_to_nested, 2);
      (Tpch.Queries.Nested_to_flat, 1);
      (Tpch.Queries.Nested_to_flat, 2);
      (Tpch.Queries.Flat_to_nested, 1);
      (Tpch.Queries.Flat_to_nested, 2);
    ];
  (* the estimator must rank correctly on a clear majority of the cells *)
  check "recommendation agrees on most cells" true (!agree * 3 >= !total * 2)

let test_recommend_shape () =
  let prog =
    Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.example1
  in
  let r = Trance.Cost.recommend ~unshred:true prog Fixtures.inputs_val in
  check "costs are positive" true
    (r.Trance.Cost.standard_cost > 0. && r.Trance.Cost.shredded_cost > 0.)

let () =
  Alcotest.run "cost"
    [
      ( "statistics",
        [
          Alcotest.test_case "stats_of_bag" `Quick test_stats_of_bag;
          Alcotest.test_case "scan/select" `Quick test_estimate_scan_select;
          Alcotest.test_case "monotone in size" `Quick
            test_estimate_monotone_in_size;
          Alcotest.test_case "fanout drives unnest" `Quick
            test_fanout_drives_unnest;
        ] );
      ( "recommendation",
        [
          Alcotest.test_case "matches simulator ranking" `Slow
            test_recommendation_matches_simulator;
          Alcotest.test_case "shape" `Quick test_recommend_shape;
        ] );
    ]
