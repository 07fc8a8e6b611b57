(** Tests for the cluster simulator and the end-to-end strategies: every
    corpus query must produce the same bag under Standard, Shredded (with
    and without unshredding), SparkSQL-proxy, and skew-aware variants as the
    NRC reference interpreter; plus unit tests for datasets, shuffling
    guarantees, heavy-key detection, broadcast decisions, cogroup fusion,
    memory-budget failures, stray executor exceptions as typed failures,
    a golden table of the simulated counters, scalar conditionals on every
    route, and a property that [Api.run] is total on boundary
    configurations. *)

module B = Nrc.Builder
module T = Nrc.Types
module V = Nrc.Value
module S = Plan.Sexpr
module Op = Plan.Op

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let cluster = { Exec.Config.unbounded with partitions = 7; workers = 3 }

let api_config =
  { Trance.Api.default_config with cluster }

(* ------------------------------------------------------------------ *)
(* Dataset invariants *)

let test_dataset_roundtrip () =
  let bag = V.Bag (List.init 23 (fun i -> V.Int i)) in
  let ds = Exec.Dataset.of_bag ~partitions:7 bag in
  check_int "partition count" 7 (Exec.Dataset.partition_count ds);
  check_int "row count" 23 (Exec.Dataset.total_rows ds);
  check "roundtrip preserves the bag" true
    (V.bag_equal bag (Exec.Dataset.to_bag ds))

let test_dataset_key_guarantee () =
  let bag =
    V.Bag
      (List.init 40 (fun i ->
           V.Tuple [ ("k", V.Int (i mod 5)); ("v", V.Int i) ]))
  in
  let ds = Exec.Dataset.of_bag_by ~partitions:7 ~key:[ Plan.Sexpr.Col [ "item"; "k" ] ] bag in
  check "bag preserved" true (V.bag_equal bag (Exec.Dataset.to_bag ds));
  (* all values of one key live in one partition *)
  let locations = Hashtbl.create 8 in
  Array.iteri
    (fun p part ->
      Array.iter
        (fun v ->
          let k = V.field v "k" in
          match Hashtbl.find_opt locations k with
          | None -> Hashtbl.add locations k p
          | Some p' -> check "key guarantee" true (p = p'))
        part)
    (Fixtures.elements ds);
  check_int "five distinct keys" 5 (Hashtbl.length locations)

(* ------------------------------------------------------------------ *)
(* Executor vs local plan interpreter on the corpus *)

let exec_plan_agree name q () =
  let plan = Trance.Unnest.translate ~tenv:Fixtures.inputs_ty q in
  let expected =
    Plan.Local_eval.eval_to_bag
      (Plan.Local_eval.env_of_list Fixtures.inputs_val)
      plan
  in
  let stats = Exec.Stats.create () in
  let env =
    Exec.Executor.env_of_list
      (List.map
         (fun (n, v) -> (n, Exec.Dataset.of_bag ~partitions:7 v))
         Fixtures.inputs_val)
  in
  let ds = Exec.Executor.run_plan ~config:cluster ~stats env plan in
  Fixtures.check_bag_equal name expected (Exec.Dataset.to_bag ds)

let executor_corpus =
  List.map
    (fun (name, q) ->
      Alcotest.test_case (name ^ " (executor = local)") `Quick
        (exec_plan_agree name q))
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* End-to-end strategies via the API *)

let strategies =
  [
    Trance.Api.Standard;
    Trance.Api.Shredded { unshred = true };
    Trance.Api.SparkSQL_proxy;
  ]

let run_strategy ?(config = api_config) strategy q =
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  Trance.Api.run ~config ~strategy prog Fixtures.inputs_val

let strategy_tests =
  List.concat_map
    (fun (name, q) ->
      List.concat_map
        (fun strategy ->
          let sname = Trance.Api.strategy_name strategy in
          [
            Alcotest.test_case
              (Printf.sprintf "%s [%s]" name sname)
              `Quick
              (fun () ->
                let r = run_strategy strategy q in
                (match r.Trance.Api.failure with
                | Some f ->
                  Alcotest.failf "%s failed: %s" sname
                    (Trance.Api.failure_message f)
                | None -> ());
                Fixtures.check_bag_equal
                  (Printf.sprintf "%s/%s" name sname)
                  (Fixtures.eval_ref q)
                  (Option.get r.Trance.Api.value));
            Alcotest.test_case
              (Printf.sprintf "%s [%s, skew-aware]" name sname)
              `Quick
              (fun () ->
                let config = { api_config with skew_aware = true } in
                let r = run_strategy ~config strategy q in
                (match r.Trance.Api.failure with
                | Some f ->
                  Alcotest.failf "%s failed: %s" sname
                    (Trance.Api.failure_message f)
                | None -> ());
                Fixtures.check_bag_equal
                  (Printf.sprintf "%s/%s skew" name sname)
                  (Fixtures.eval_ref q)
                  (Option.get r.Trance.Api.value));
          ])
        strategies)
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* Heavy-key detection *)

let test_heavy_keys () =
  (* 70% of rows share one key; sampling must flag it and only it *)
  let rows = List.init 1000 (fun i ->
      V.Tuple [ ("k", V.Int (if i mod 10 < 7 then 999 else i)); ("v", V.Int i) ])
  in
  let prog =
    B.(
      for_ "x" (input "R") (fun x ->
          for_ "y" (input "Bigger") (fun y ->
              where (x #. "k" == y #. "k")
                (sng (record [ ("k", x #. "k"); ("v2", y #. "v") ])))))
  in
  let tenv =
    [
      ("R", Nrc.Types.(bag (tuple [ ("k", int_); ("v", int_) ])));
      ("Bigger", Nrc.Types.(bag (tuple [ ("k", int_); ("v", int_) ])));
    ]
  in
  let bigger = List.init 2000 (fun i ->
      V.Tuple [ ("k", V.Int (if i < 100 then 999 else i)); ("v", V.Int i) ])
  in
  let inputs = [ ("R", V.Bag rows); ("Bigger", V.Bag bigger) ] in
  let expected = Nrc.Eval.eval (Nrc.Eval.env_of_list inputs) prog in
  (* run skew-aware with a tiny broadcast limit so only the heavy path uses
     broadcast *)
  let config =
    {
      api_config with
      skew_aware = true;
      cluster = { cluster with broadcast_limit = 1 };
    }
  in
  let p = Nrc.Program.of_expr ~inputs:tenv ~name:"Q" prog in
  let r = Trance.Api.run ~config ~strategy:Trance.Api.Standard p inputs in
  check "no failure" true (r.Trance.Api.failure = None);
  Fixtures.check_bag_equal "skew join result" expected
    (Option.get r.Trance.Api.value);
  check "heavy path broadcasts something" true
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.broadcast_bytes > 0)

let test_skew_join_less_imbalance () =
  (* with a heavy key, the skew-aware join must shuffle less than the
     skew-unaware one (heavy rows stay in place) *)
  let n = 4000 in
  let rows = List.init n (fun i ->
      V.Tuple [ ("k", V.Int (if i mod 10 < 8 then 1 else i)); ("v", V.Str (String.make 20 'x')) ])
  in
  let small = List.init 50 (fun i -> V.Tuple [ ("k", V.Int (if i = 0 then 1 else i)); ("w", V.Int i) ]) in
  let tenv =
    [
      ("R", Nrc.Types.(bag (tuple [ ("k", int_); ("v", string_) ])));
      ("Sm", Nrc.Types.(bag (tuple [ ("k", int_); ("w", int_) ])));
    ]
  in
  let inputs = [ ("R", V.Bag rows); ("Sm", V.Bag small) ] in
  let q =
    B.(
      for_ "x" (input "R") (fun x ->
          for_ "y" (input "Sm") (fun y ->
              where (x #. "k" == y #. "k")
                (sng (record [ ("v", x #. "v"); ("w", y #. "w") ])))))
  in
  let p = Nrc.Program.of_expr ~inputs:tenv ~name:"Q" q in
  let no_broadcast = { cluster with broadcast_limit = 1 } in
  let run skew =
    Trance.Api.run
      ~config:{ api_config with skew_aware = skew; cluster = no_broadcast }
      ~strategy:Trance.Api.Standard p inputs
  in
  let plain = run false and skewed = run true in
  check "same result" true
    (V.approx_bag_equal
       (Option.get plain.Trance.Api.value)
       (Option.get skewed.Trance.Api.value));
  check "skew-aware shuffles less" true
    ((Exec.Stats.snapshot skewed.Trance.Api.stats).Exec.Stats.shuffled_bytes
    < (Exec.Stats.snapshot plain.Trance.Api.stats).Exec.Stats.shuffled_bytes)

(* ------------------------------------------------------------------ *)
(* Partition and sampling invariants (property tests) *)

let arbitrary_keyed_bag =
  QCheck.make
    ~print:(fun rows -> V.to_string (V.Bag rows))
    QCheck.Gen.(
      list_size (int_bound 200)
        (map2
           (fun k v -> V.Tuple [ ("k", V.Int (k mod 9)); ("v", V.Int v) ])
           nat nat))

let prop_partition_preserves_bag =
  QCheck.Test.make ~name:"hash partitioning preserves the bag" ~count:(Fixtures.qcheck_count 100)
    arbitrary_keyed_bag (fun rows ->
      let bag = V.Bag rows in
      let ds = Exec.Dataset.of_bag_by ~partitions:7 ~key:[ Plan.Sexpr.Col [ "item"; "k" ] ] bag in
      V.bag_equal bag (Exec.Dataset.to_bag ds)
      && Exec.Dataset.total_rows ds = List.length rows)

let prop_key_guarantee =
  QCheck.Test.make ~name:"key guarantee: one partition per key" ~count:(Fixtures.qcheck_count 100)
    arbitrary_keyed_bag (fun rows ->
      let ds =
        Exec.Dataset.of_bag_by ~partitions:7 ~key:[ Plan.Sexpr.Col [ "item"; "k" ] ] (V.Bag rows)
      in
      let loc = Hashtbl.create 16 in
      let ok = ref true in
      Array.iteri
        (fun p part ->
          Array.iter
            (fun v ->
              let k = V.field v "k" in
              match Hashtbl.find_opt loc k with
              | None -> Hashtbl.add loc k p
              | Some p' -> if p <> p' then ok := false)
            part)
        (Fixtures.elements ds);
      !ok)

let test_heavy_key_detection_bounds () =
  (* a dataset where 80% of rows share one key: that key (and only keys at
     comparable frequency) must be flagged heavy; uniform data yields none *)
  let skewed =
    List.init 2000 (fun i ->
        [ ("t", V.Tuple [ ("k", V.Int (if i mod 5 < 4 then 42 else i)) ]) ])
  in
  let uniform =
    List.init 2000 (fun i -> [ ("t", V.Tuple [ ("k", V.Int i) ]) ])
  in
  (* exercise detection through the public API: a skew-aware join on the
     heavy key must broadcast (heavy path), on uniform data it must not *)
  let tenv =
    [ ("R", Nrc.Types.(bag (tuple [ ("k", int_) ])));
      ("S2", Nrc.Types.(bag (tuple [ ("k", int_); ("w", int_) ]))) ]
  in
  let q =
    B.(
      for_ "x" (input "R") (fun x ->
          for_ "y" (input "S2") (fun y ->
              where (x #. "k" == y #. "k")
                (sng (record [ ("k", x #. "k"); ("w", y #. "w") ])))))
  in
  let s2 = List.init 50 (fun i -> V.Tuple [ ("k", V.Int (if i = 0 then 42 else i)); ("w", V.Int i) ]) in
  let mk rows = [ ("R", V.Bag (List.map (fun r -> List.assoc "t" r) rows)); ("S2", V.Bag s2) ] in
  let config =
    { api_config with
      skew_aware = true;
      cluster = { cluster with broadcast_limit = 0 } }
  in
  let run rows =
    Trance.Api.run ~config ~strategy:Trance.Api.Standard
      (Nrc.Program.of_expr ~inputs:tenv ~name:"Q" q)
      (mk rows)
  in
  let r_skew = run skewed and r_uni = run uniform in
  check "heavy key triggers broadcast path" true
    ((Exec.Stats.snapshot r_skew.Trance.Api.stats).Exec.Stats.broadcast_bytes > 0);
  check "uniform data uses no heavy path" true
    ((Exec.Stats.snapshot r_uni.Trance.Api.stats).Exec.Stats.broadcast_bytes = 0)

(* ------------------------------------------------------------------ *)
(* Memory budget: FAIL reproduction *)

let test_oom_failure () =
  (* tiny worker budget, spilling off, no fallback: the standard route on
     nested data must fail, and the API must report it as a failure, not
     raise *)
  let tiny =
    { api_config with
      cluster =
        { cluster with worker_mem = 512; spill = Exec.Config.Off };
      route_fallback = false }
  in
  let r =
    Trance.Api.run ~config:tiny ~strategy:Trance.Api.Standard
      (Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q"
         Fixtures.example1)
      Fixtures.inputs_val
  in
  check "failure reported" true (r.Trance.Api.failure <> None);
  check "no value on failure" true (r.Trance.Api.value = None)

(* An exception escaping the executor is still a typed failure of its
   step: here the plan scans an input that was not supplied. *)
let test_stray_exception_typed () =
  List.iter
    (fun strategy ->
      let r =
        Trance.Api.run ~config:api_config ~strategy
          (Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q"
             Fixtures.example1)
          (List.filter (fun (n, _) -> n <> "COP") Fixtures.inputs_val)
      in
      match r.Trance.Api.failure with
      | Some (Trance.Api.Error msg) ->
        check ("names the step: " ^ msg) true
          (String.length msg > 3 && String.sub msg 0 3 = "Q: ");
        check ("names the input: " ^ msg) true
          (contains msg "unknown input" && contains msg "COP");
        check "no value on failure" true (r.Trance.Api.value = None)
      | _ ->
        Alcotest.failf "%s: expected failure = Some (Error _)"
          (Trance.Api.strategy_name strategy))
    strategies

(* ------------------------------------------------------------------ *)
(* Keys holding bags. Key equality is order-sensitive on bags everywhere:
   [Value.equal], the kernels' key table and [Nrc.Eval] alike. [Value.hash]
   ignores bag order, so permuted bags only collide. Equal bags must
   group, dedup and join together; permutations of them stay apart. *)

let xs is = V.Bag (List.map (fun i -> V.Tuple [ ("x", V.Int i) ]) is)

let bag_keyed_inputs =
  let b g h s = V.Tuple [ ("g", V.Int g); ("h", V.Int h); ("s", xs s) ] in
  let c s t = V.Tuple [ ("s", xs s); ("t", V.Str t) ] in
  [
    ( "B",
      V.Bag
        [ b 1 0 [ 1; 2 ]; b 2 1 [ 1; 2 ]; b 3 0 [ 2; 1 ]; b 4 1 [];
          b 5 0 [ 1; 2 ]; b 6 1 [ 2; 1 ]; b 7 0 [ 1; 2; 1 ] ] );
    ("C", V.Bag [ c [ 1; 2 ] "p"; c [ 2; 1 ] "q"; c [] "r"; c [ 1; 2 ] "s" ]);
  ]

let bag_keyed_tenv =
  let xs_ty = Nrc.Types.(bag (tuple [ ("x", int_) ])) in
  [
    ("B", Nrc.Types.(bag (tuple [ ("g", int_); ("h", int_); ("s", xs_ty) ])));
    ("C", Nrc.Types.(bag (tuple [ ("s", xs_ty); ("t", string_) ])));
  ]

let eval_bag_keyed q = Nrc.Eval.eval (Nrc.Eval.env_of_list bag_keyed_inputs) q

(* (name, query keyed on a bag, the plan that runs it, result size): the
   sizes count [1;2] and [2;1] apart *)
let bag_keyed_cases =
  let scan input binder = Op.Scan { input; binder } in
  let bs = S.path "b" [ "s" ] and bg = S.path "b" [ "g" ] in
  let s_and_g =
    B.(for_ "b" (input "B") (fun b ->
           sng (record [ ("s", b #. "s"); ("g", b #. "g") ])))
  in
  let yes = S.Const (V.Bool true) in
  [
    ( "group",
      B.group_by [ "s" ] s_and_g,
      Op.NestBag
        { input = scan "B" "b"; keys = [ ("s", bs) ]; agg_keys = [];
          item = S.MkTuple [ ("g", bg) ]; presence = yes; out = "group" },
      4 );
    ( "sum",
      B.sum_by ~keys:[ "s" ] ~values:[ "g" ] s_and_g,
      Op.NestSum
        { input = scan "B" "b"; keys = [ ("s", bs) ]; agg_keys = [];
          aggs = [ ("g", bg) ]; presence = yes },
      4 );
    ( "dedup",
      B.(dedup (for_ "b" (input "B") (fun b -> sng (record [ ("s", b #. "s") ])))),
      Op.Dedup (Op.Project ([ ("s", bs) ], scan "B" "b")),
      4 );
    ( "join",
      B.(for_ "b" (input "B") (fun b ->
             for_ "c" (input "C") (fun c ->
                 where (b #. "s" == c #. "s")
                   (sng (record [ ("g", b #. "g"); ("t", c #. "t") ]))))),
      Op.Project
        ( [ ("g", bg); ("t", S.path "c" [ "t" ]) ],
          Op.Join
            { left = scan "B" "b"; right = scan "C" "c"; lkey = [ bs ];
              rkey = [ S.path "c" [ "s" ] ]; kind = Op.Inner } ),
      9 );
  ]

(* The plans run on the local interpreter and on the executor: one and
   many partitions (permuted bags hash alike, so they share one),
   broadcast and shuffle joins, skew-aware splits on the bag keys. *)
let test_bag_keyed_plans () =
  let configs =
    [ ("7 partitions", cluster);
      ("shuffle", { cluster with broadcast_limit = 0 });
      ("1 partition", { cluster with partitions = 1; workers = 1 }) ]
  in
  let options =
    [ ("", Exec.Executor.default_options);
      (", skew-aware", { Exec.Executor.default_options with skew_aware = true }) ]
  in
  List.iter
    (fun (name, q, plan, size) ->
      let expected = eval_bag_keyed q in
      check_int (name ^ ": Nrc.Eval keeps permutations apart") size
        (List.length (V.bag_items expected));
      Fixtures.check_bag_equal (name ^ " [local]") expected
        (Plan.Local_eval.eval_to_bag
           (Plan.Local_eval.env_of_list bag_keyed_inputs)
           plan);
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun (oname, options) ->
              let env =
                Exec.Executor.env_of_list
                  (List.map
                     (fun (n, v) ->
                       ( n,
                         Exec.Dataset.of_bag
                           ~partitions:config.Exec.Config.partitions v ))
                     bag_keyed_inputs)
              in
              let ds =
                Exec.Executor.run_plan ~options ~config
                  ~stats:(Exec.Stats.create ()) env plan
              in
              Fixtures.check_bag_equal
                (Printf.sprintf "%s [executor, %s%s]" name cname oname)
                expected (Exec.Dataset.to_bag ds))
            options)
        configs)
    bag_keyed_cases

(* A union's right side takes the left side's columns as the rows hold
   them. The left branch here unnests a bag column and drops it, so its
   rows lack a column that [Op.columns] still lists, and that the right
   branch supplies; above them, a projection reads the common columns. *)
let test_union_over_dropping_unnest () =
  let item a = V.Tuple [ ("a", V.Int a) ] in
  let inputs =
    [ ( "N",
        V.Bag
          [ V.Tuple [ ("k", V.Int 1); ("items", V.Bag [ item 10; item 11 ]) ];
            V.Tuple [ ("k", V.Int 2); ("items", V.Bag []) ];
            V.Tuple [ ("k", V.Int 3); ("items", V.Bag [ item 30 ]) ] ] );
      ("M", V.Bag [ V.Tuple [ ("k", V.Int 4); ("a", V.Int 40) ]; V.Tuple [ ("k", V.Int 5); ("a", V.Int 50) ] ]) ]
  in
  let q =
    B.(
      for_ "n" (input "N") (fun n ->
          for_ "i" (n #. "items") (fun i -> sng (record [ ("k", n #. "k"); ("a", i #. "a") ])))
      ++ for_ "m" (input "M") (fun m -> sng (record [ ("k", m #. "k"); ("a", m #. "a") ])))
  in
  let scan input binder = Op.Scan { input; binder } in
  let left =
    Op.Unnest
      { input = Op.Project ([ ("xs", S.path "n" [ "items" ]); ("k", S.path "n" [ "k" ]) ], scan "N" "n");
        path = [ "xs" ]; binder = "i"; outer = false; drop = true }
  and right =
    Op.Project
      ( [ ("xs", S.Const (V.Bag [])); ("k", S.path "m" [ "k" ]); ("i", S.MkTuple [ ("a", S.path "m" [ "a" ]) ]) ],
        scan "M" "m" )
  in
  let plan = Op.Project ([ ("k", S.Col [ "k" ]); ("a", S.path "i" [ "a" ]) ], Op.UnionAll (left, right)) in
  check "the left side drops a column its plan columns list" true
    (List.mem "xs" (Op.columns left)
    && not (Array.mem "xs" (fst (Plan.Local_eval.eval (Plan.Local_eval.env_of_list inputs) left))));
  let expected = Nrc.Eval.eval (Nrc.Eval.env_of_list inputs) q in
  Fixtures.check_bag_equal "local" expected
    (Plan.Local_eval.eval_to_bag (Plan.Local_eval.env_of_list inputs) plan);
  List.iter
    (fun (cname, config) ->
      let env =
        Exec.Executor.env_of_list
          (List.map
             (fun (n, v) -> (n, Exec.Dataset.of_bag ~partitions:config.Exec.Config.partitions v))
             inputs)
      in
      Fixtures.check_bag_equal ("executor, " ^ cname) expected
        (Exec.Dataset.to_bag
           (Exec.Executor.run_plan ~config ~stats:(Exec.Stats.create ()) env plan)))
    [ ("7 partitions", cluster); ("1 partition", { cluster with partitions = 1; workers = 1 }) ]

(* A source program cannot key on a bag (Figure 1 keeps comparisons,
   dedup and grouping keys flat): every route rejects these queries when
   compiling, before any of them could observe bag order. *)
let test_bag_keyed_source_rejected () =
  List.iter
    (fun (name, q, _, _) ->
      let prog = Nrc.Program.of_expr ~inputs:bag_keyed_tenv ~name:"Q" q in
      List.iter
        (fun (route, compile) ->
          match compile prog with
          | () -> Alcotest.failf "%s [%s]: a bag-valued key compiled" name route
          | exception Nrc.Typecheck.Type_error _ -> ())
        [
          ("standard", fun p -> ignore (Trance.Api.compile_standard p));
          ("shredded", fun p -> ignore (Trance.Api.compile_shredded p));
        ])
    bag_keyed_cases

(* [Api.run] is total on programs a route cannot compile: a bag-keyed
   groupBy fails type checking on every route, and a bag of scalars nested
   in a tuple is beyond shredding (a dictionary needs tuple-valued inner
   bags) while the routes that flatten answer it. Every such run ends as
   [Error "compile: ..."] — never an exception. *)
let test_compile_errors_typed () =
  let group_by_bag =
    List.find_map (fun (name, q, _, _) -> if name = "group" then Some q else None)
      bag_keyed_cases
    |> Option.get
  in
  let scalars_inside =
    B.(for_ "b" (input "B") (fun b ->
           sng
             (record
                [ ("g", b #. "g");
                  ("xs", for_ "x" (b #. "s") (fun x -> sng (x #. "x"))) ])))
  in
  let shredded = function Trance.Api.Shredded _ -> true | _ -> false in
  List.iter
    (fun (name, q, fails) ->
      let prog = Nrc.Program.of_expr ~inputs:bag_keyed_tenv ~name:"Q" q in
      List.iter
        (fun strategy ->
          let what = Printf.sprintf "%s [%s]" name (Trance.Api.strategy_name strategy) in
          match
            Trance.Api.run ~config:api_config ~strategy prog bag_keyed_inputs
          with
          | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
          | { failure = Some (Trance.Api.Error msg); value = None; _ } when fails strategy ->
            check (what ^ " names the phase: " ^ msg) true
              (String.length msg > 9 && String.sub msg 0 9 = "compile: ")
          | { failure = None; value = Some v; _ } when not (fails strategy) ->
            Fixtures.check_bag_equal what (eval_bag_keyed q) v
          | { failure; _ } ->
            Alcotest.failf "%s: unexpected outcome %s" what
              (Option.fold ~none:"(answered)" ~some:Trance.Api.failure_message failure))
        strategies)
    [ ("bag-keyed groupBy", group_by_bag, fun _ -> true);
      ("scalar bag inside a tuple", scalars_inside, shredded) ]

(* Type-correct queries whose plans group, shuffle and join rows that
   hold these bags: a nest under a bag-holding parent (its grouping key
   holds the parent's bag), nested groups whose items are bags, and a join
   carrying them. Every route and the local interpreter must agree with
   Nrc.Eval. *)
let bag_carrying_queries =
  B.
    [
      ( "nest under a bag-holding parent",
        for_ "b" (input "B") (fun b ->
            sng
              (record
                 [ ("s", b #. "s"); ("g", b #. "g");
                   ( "ys",
                     for_ "x" (b #. "s") (fun x ->
                         sng (record [ ("y", x #. "x") ])) ) ])) );
      ( "groups holding bags",
        for_ "b" (input "B") (fun b ->
            sng
              (record
                 [ ("s", b #. "s");
                   ( "same_h",
                     for_ "b2" (input "B") (fun b2 ->
                         where (b #. "h" == b2 #. "h")
                           (sng (record [ ("s2", b2 #. "s") ]))) ) ])) );
      ( "join carrying bags",
        for_ "b" (input "B") (fun b ->
            for_ "b2" (input "B") (fun b2 ->
                where (b #. "g" == b2 #. "h")
                  (sng (record [ ("s", b #. "s"); ("s2", b2 #. "s") ])))) );
    ]

let test_bag_carrying_routes () =
  List.iter
    (fun (name, q) ->
      let expected = eval_bag_keyed q in
      let plan = Trance.Unnest.translate ~tenv:bag_keyed_tenv q in
      Fixtures.check_bag_equal (name ^ " [local]") expected
        (Plan.Local_eval.eval_to_bag
           (Plan.Local_eval.env_of_list bag_keyed_inputs)
           plan);
      let prog = Nrc.Program.of_expr ~inputs:bag_keyed_tenv ~name:"Q" q in
      List.iter
        (fun strategy ->
          let sname = Trance.Api.strategy_name strategy in
          let r = Trance.Api.run ~config:api_config ~strategy prog bag_keyed_inputs in
          match r.Trance.Api.failure with
          | Some f ->
            Alcotest.failf "%s [%s] failed: %s" name sname
              (Trance.Api.failure_message f)
          | None ->
            Fixtures.check_bag_equal
              (Printf.sprintf "%s [%s]" name sname)
              expected (Option.get r.Trance.Api.value))
        strategies)
    bag_carrying_queries

(* ------------------------------------------------------------------ *)
(* User names that look like generated ones *)

let route_strategies =
  Trance.Api.
    [ Standard; Shredded { unshred = false }; Shredded { unshred = true }; SparkSQL_proxy ]

(* A division by zero, int or real, that a kernel evaluates is a typed
   failure of its step naming the division: never an answer, never an
   exception constructor. *)
let test_division_by_zero strategy () =
  List.iter
    (fun division ->
      let prog =
        Nrc.Parser.program_of_string ~inputs:Fixtures.inputs_ty
          ("Q <- for p in Part union sng(pid := p.pid, r := " ^ division ^ ");")
      in
      match Trance.Api.run ~config:api_config ~strategy prog Fixtures.inputs_val with
      | { failure = Some (Trance.Api.Error msg); value = None; _ } ->
        check (division ^ ": " ^ msg) true
          (String.starts_with ~prefix:"Q: division by zero: " msg)
      | { failure; _ } ->
        Alcotest.failf "%s: %s" division
          (Option.fold ~none:"answered" ~some:Trance.Api.failure_message failure))
    [ "p.pid / 0"; "p.price / 0.0" ]

(* The shredded route once told dictionaries and steps apart by parsing
   the names it generates: a target named like a dictionary was cast to
   one, a flat input named like one was loaded as one, and a target whose
   name extends another's folded into that step. Generated names also
   rendered alike: [T]'s dictionary for [F] and the top bag of [T_D] are
   both T_D_F, whether [T_D] is a target or an input. Each case must
   answer like the reference interpreter on every route, with the source
   steps the Standard route reports. *)
let test_generated_name_lookalikes () =
  let flat_ty = T.TBag (T.TTuple [ ("x", T.int_) ]) in
  let flat_val = V.Bag (List.init 5 (fun i -> V.Tuple [ ("x", V.Int i) ])) in
  let nested_ty =
    T.TBag (T.TTuple [ ("c", T.int_); ("F", T.TBag (T.TTuple [ ("d", T.int_) ])) ])
  in
  let nested_val =
    V.Bag
      (List.init 4 (fun c ->
           V.Tuple
             [ ("c", V.Int c);
               ("F", V.Bag (List.init c (fun d -> V.Tuple [ ("d", V.Int (c + d)) ]))) ]))
  in
  let cases =
    [
      ( "dictionary-like target",
        Fixtures.inputs_ty,
        Fixtures.inputs_val,
        "Q_D_x <- for c in COP union sng(cname := c.cname);" );
      ( "dictionary-like flat input",
        [ ("A_D_B", flat_ty) ],
        [ ("A_D_B", flat_val) ],
        "Q <- for a in A_D_B union if a.x > 1 then sng(x := a.x);" );
      ( "target extending another target",
        Fixtures.inputs_ty,
        Fixtures.inputs_val,
        "Q <- for c in COP union sng(cname := c.cname, corders := for o in \
         c.corders union sng(odate := o.odate)); Q_big <- for q in Q union \
         for o in q.corders union sng(cname := q.cname, odate := o.odate);" );
      ( "a target named like a dictionary of another",
        Fixtures.inputs_ty,
        Fixtures.inputs_val,
        "T <- for c in COP union sng(cname := c.cname, F := for o in c.corders \
         union sng(d := o.odate)); T_D <- for t in T union sng(n := t.cname); \
         T2 <- for t in T union for f in t.F union sng(d := f.d);" );
      ( "an input named like a dictionary of another",
        [ ("T", nested_ty); ("T_D", flat_ty) ],
        [ ("T", nested_val); ("T_D", flat_val) ],
        "Q <- for t in T union for f in t.F union for u in T_D union if f.d == u.x \
         then sng(c := t.c, d := f.d);" );
      ( "a target assigned twice",
        Fixtures.inputs_ty,
        Fixtures.inputs_val,
        "Q <- for c in COP union sng(cname := c.cname, corders := for o in c.corders \
         union sng(odate := o.odate, n := 1)); Q <- for q in Q union sng(cname := q.cname, \
         corders := for o in q.corders union if o.n == 1 then sng(odate := o.odate)); \
         R <- for q in Q union for o in q.corders union sng(cname := q.cname, odate := o.odate);" );
      ( "a target named like an input",
        Fixtures.inputs_ty,
        Fixtures.inputs_val,
        "COP <- for c in COP union sng(cname := c.cname, corders := for o in c.corders \
         union sng(odate := o.odate)); Q <- for c in COP union for o in c.corders \
         union sng(cname := c.cname, odate := o.odate);" );
    ]
  in
  List.iter
    (fun (name, inputs, values, text) ->
      let prog = Nrc.Parser.program_of_string ~inputs text in
      let expected = Nrc.Program.eval_result prog values in
      (* one step per target, however often it is assigned *)
      let targets =
        List.fold_left
          (fun acc { Nrc.Program.target; _ } ->
            if List.mem target acc then acc else acc @ [ target ])
          [] prog.assignments
      in
      List.iter
        (fun strategy ->
          let what =
            Printf.sprintf "%s [%s]" name (Trance.Api.strategy_name strategy)
          in
          let r = Trance.Api.run ~config:api_config ~strategy prog values in
          (match r.failure with
          | Some f -> Alcotest.failf "%s failed: %s" what (Trance.Api.failure_message f)
          | None -> Fixtures.check_bag_equal what expected (Option.get r.value));
          Alcotest.(check (list string))
            (what ^ " steps") targets
            (List.filter_map
               (fun (s : Trance.Api.step_report) ->
                 if s.step = "Unshred" then None else Some s.step)
               r.steps))
        [
          Trance.Api.Standard;
          Trance.Api.Shredded { unshred = false };
          Trance.Api.Shredded { unshred = true };
        ])
    cases;
  (* a target shadows the input of its name for the queries after it, in
     the Standard routes' type environment too: a later read of a field
     only the input has fails to compile on every route, never at run
     time *)
  let prog =
    Nrc.Parser.program_of_string ~inputs:Fixtures.inputs_ty
      "Part <- for p in Part union sng(pid := p.pid); \
       Q <- for p in Part union if p.price > 1.0 then sng(pid := p.pid);"
  in
  List.iter
    (fun strategy ->
      let what = "shadowed input [" ^ Trance.Api.strategy_name strategy ^ "]" in
      match (Trance.Api.run ~config:api_config ~strategy prog Fixtures.inputs_val).failure with
      | Some (Trance.Api.Error msg) ->
        check (what ^ ": " ^ msg) true (String.starts_with ~prefix:"compile: " msg)
      | Some f -> Alcotest.failf "%s failed: %s" what (Trance.Api.failure_message f)
      | None -> Alcotest.failf "%s ran" what)
    route_strategies

(* ------------------------------------------------------------------ *)
(* Broadcast vs shuffle decisions *)

let test_broadcast_decision () =
  let q = Fixtures.nested_to_flat in
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  (* large broadcast limit: Part is broadcast, no shuffle for the join *)
  let r_b =
    Trance.Api.run
      ~config:{ api_config with cluster = { cluster with broadcast_limit = max_int } }
      ~strategy:Trance.Api.Standard prog Fixtures.inputs_val
  in
  let r_s =
    Trance.Api.run
      ~config:{ api_config with cluster = { cluster with broadcast_limit = 0 } }
      ~strategy:Trance.Api.Standard prog Fixtures.inputs_val
  in
  check "results agree" true
    (V.approx_bag_equal (Option.get r_b.Trance.Api.value) (Option.get r_s.Trance.Api.value));
  check "broadcast mode broadcasts" true
    ((Exec.Stats.snapshot r_b.Trance.Api.stats).Exec.Stats.broadcast_bytes > 0);
  check "shuffle mode shuffles more" true
    ((Exec.Stats.snapshot r_s.Trance.Api.stats).Exec.Stats.shuffled_bytes
    > (Exec.Stats.snapshot r_b.Trance.Api.stats).Exec.Stats.shuffled_bytes)

(* ------------------------------------------------------------------ *)
(* Shredded route shuffles less than standard on nested-to-nested *)

let test_shred_shuffles_less () =
  let no_broadcast =
    { api_config with cluster = { cluster with broadcast_limit = 0 } }
  in
  let prog =
    Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.example1
  in
  let std =
    Trance.Api.run ~config:no_broadcast ~strategy:Trance.Api.Standard prog
      Fixtures.inputs_val
  in
  let shred =
    Trance.Api.run ~config:no_broadcast
      ~strategy:(Trance.Api.Shredded { unshred = false }) prog
      Fixtures.inputs_val
  in
  check "both succeed" true
    (std.Trance.Api.failure = None && shred.Trance.Api.failure = None);
  check "shred shuffles no more than standard" true
    ((Exec.Stats.snapshot shred.Trance.Api.stats).Exec.Stats.shuffled_bytes
    <= (Exec.Stats.snapshot std.Trance.Api.stats).Exec.Stats.shuffled_bytes)

(* ------------------------------------------------------------------ *)
(* Golden simulated counters: every corpus query × route × config must
   reproduce the recorded stripped totals and span partition metrics bit
   for bit. Domain-count campaigns compare runs against each other, so only
   a recorded table catches a size computed wrongly in the same way
   everywhere. Floats are printed as hex, zero counters are omitted. *)

let golden_configs =
  (* pin the settings a TRANCE_* hook could move; domains stay free, as
     they move no simulated number *)
  let cluster =
    { cluster with checkpoint = Exec.Config.No_checkpoints; spill = Exec.Config.Off }
  in
  let api_config = { api_config with cluster } in
  [
    ("default", api_config);
    ("skew", { api_config with skew_aware = true });
    ("nocogroup", { api_config with cogroup = false });
    ( "shuffle",
      { api_config with cluster = { cluster with broadcast_limit = 0 } } );
  ]

let golden_line (s : Exec.Stats.snapshot) (m : Exec.Trace.metrics) =
  let ints =
    [
      ("sh", s.shuffled_bytes); ("bc", s.broadcast_bytes);
      ("peak", s.peak_worker_bytes); ("rows", s.rows_processed);
      ("st", s.stages); ("retry", s.task_retries);
      ("retried", s.retried_tasks); ("spec", s.speculative_tasks);
      ("recomp", s.recomputed_bytes); ("spill", s.spilled_bytes);
      ("spillp", s.spill_partitions); ("rounds", s.spill_rounds);
      ("ckpt", s.checkpoints_written); ("ckptb", s.checkpoint_bytes);
      ("trunc", s.lineage_truncated); ("in", m.rows_in);
      ("maxp", m.max_partition_bytes); ("sump", m.sum_partition_bytes);
      ("np", m.partitions);
    ]
  in
  let floats =
    [ ("sim", s.sim_seconds); ("rec", s.recovery_seconds) ]
  in
  String.concat " "
    (List.filter_map
       (fun (k, v) -> if v = 0 then None else Some (Printf.sprintf "%s=%d" k v))
       ints
    @ List.filter_map
        (fun (k, v) -> if v = 0. then None else Some (Printf.sprintf "%s=%h" k v))
        floats)

(* a join without an equality: the one path through [Product] *)
let cross_price =
  B.(
    for_ "cop" (input "COP") (fun cop ->
        for_ "p" (input "Part") (fun p ->
            where
              (p #. "price" > real 25.)
              (sng (record [ ("cname", cop #. "cname"); ("pname", p #. "pname") ])))))

(* a global aggregate: the one path through [gather] *)
let total_qty =
  B.(
    sum_by ~keys:[] ~values:[ "qty" ]
      (for_ "cop" (input "COP") (fun cop ->
           for_ "co" (cop #. "corders") (fun co ->
               for_ "op" (co #. "oparts") (fun op ->
                   sng (record [ ("qty", op #. "qty") ]))))))

let golden_runs () =
  List.concat_map
    (fun (cname, config) ->
      let config = { (config : Trance.Api.config) with trace = true } in
      List.concat_map
        (fun (qname, q) ->
          List.map
            (fun strategy ->
              let r = run_strategy ~config strategy q in
              ( Printf.sprintf "%s/%s/%s" qname
                  (Trance.Api.strategy_name strategy)
                  cname,
                r ))
            strategies)
        (Fixtures.corpus
         @ [ ("cross_price", cross_price); ("total_qty", total_qty) ]))
    golden_configs

(* recorded on the executor that re-walked rows to size partitions *)
let golden_table =
  [
    ("example1/Standard/default",
     "sh=1517 bc=696 peak=2705 rows=68 st=2 in=74 maxp=1164 sump=11298 np=91 sim=0x1.02693bd8c92f6p-13");
    ("example1/Shred+Unshred/default",
     "sh=1570 bc=2508 peak=1141 rows=81 st=4 in=135 maxp=354 sump=8594 np=140 sim=0x1.697712053b284p-14");
    ("example1/SparkSQL/default",
     "sh=1517 bc=696 peak=4713 rows=63 st=2 in=69 maxp=2076 sump=14436 np=84 sim=0x1.6a38580b2edd3p-13");
    ("flatten/Standard/default",
     "peak=906 rows=22 in=26 maxp=404 sump=2266 np=28 sim=0x1.9a89d9881c18cp-16");
    ("flatten/Shred+Unshred/default",
     "bc=2100 peak=1626 rows=33 in=59 maxp=724 sump=3062 np=42 sim=0x1.06fb9cc3f0854p-15");
    ("flatten/SparkSQL/default",
     "peak=2910 rows=17 in=21 maxp=1716 sump=3912 np=21 sim=0x1.ca1a14ff159f5p-15");
    ("nested_to_flat/Standard/default",
     "sh=74 bc=480 peak=1228 rows=28 st=1 in=43 maxp=564 sump=2903 np=56 sim=0x1.4234d8cfba67fp-15");
    ("nested_to_flat/Shred+Unshred/default",
     "sh=74 bc=2400 peak=1840 rows=39 st=1 in=76 maxp=836 sump=3847 np=70 sim=0x1.9a745ff939e84p-15");
    ("nested_to_flat/SparkSQL/default",
     "sh=74 bc=696 peak=4140 rows=19 st=1 in=34 maxp=1948 sump=5935 np=42 sim=0x1.8f81e8a2ec28bp-14");
    ("flat_to_nested/Standard/default",
     "bc=696 peak=552 rows=16 in=28 maxp=126 sump=1152 np=28 sim=0x1.8a99a17c3c10ap-18");
    ("flat_to_nested/Shred+Unshred/default",
     "sh=248 bc=792 peak=636 rows=32 st=1 in=56 maxp=186 sump=2432 np=63 sim=0x1.36b6cb58ae6cfp-16");
    ("flat_to_nested/SparkSQL/default",
     "sh=792 bc=696 peak=776 rows=18 st=1 in=30 maxp=264 sump=2696 np=35 sim=0x1.690bb23ad0359p-16");
    ("select_nested/Standard/default",
     "peak=818 rows=21 in=27 maxp=277 sump=3122 np=35 sim=0x1.bc98a222d5172p-16");
    ("select_nested/Shred+Unshred/default",
     "sh=699 bc=2100 peak=1283 rows=44 st=1 in=76 maxp=332 sump=5174 np=77 sim=0x1.7dae81882adc5p-15");
    ("select_nested/SparkSQL/default",
     "peak=818 rows=16 in=22 maxp=277 sump=2468 np=28 sim=0x1.6504e770671b4p-16");
    ("group_query/Standard/default",
     "sh=594 peak=826 rows=13 st=1 in=20 maxp=515 sump=2074 np=28 sim=0x1.4031736a85dadp-15");
    ("group_query/Shred+Unshred/default",
     "sh=466 bc=2046 peak=647 rows=55 st=2 in=105 maxp=202 sump=3860 np=105 sim=0x1.9e2544881a405p-15");
    ("group_query/SparkSQL/default",
     "sh=1294 peak=1526 rows=8 st=1 in=15 maxp=1155 sump=2820 np=21 sim=0x1.238bcb4fca17cp-14");
    ("dedup_query/Standard/default",
     "sh=96 peak=772 rows=26 st=1 in=32 maxp=336 sump=1844 np=42 sim=0x1.6f40d588323e2p-16");
    ("dedup_query/Shred+Unshred/default",
     "sh=96 bc=1704 peak=1264 rows=37 st=1 in=65 maxp=560 sump=2304 np=56 sim=0x1.ae55e940a0da1p-16");
    ("dedup_query/SparkSQL/default",
     "sh=96 peak=2910 rows=21 st=1 in=27 maxp=1716 sump=3755 np=35 sim=0x1.c86c95d569d46p-15");
    ("deep_nested/Standard/default",
     "sh=2266 peak=1614 rows=46 st=2 in=51 maxp=932 sump=8724 np=70 sim=0x1.c3fa6b4095c76p-14");
    ("deep_nested/Shred+Unshred/default",
     "sh=1362 bc=1920 peak=1191 rows=74 st=3 in=126 maxp=306 sump=7672 np=119 sim=0x1.287412767a2fcp-14");
    ("deep_nested/SparkSQL/default",
     "sh=3442 peak=3166 rows=41 st=2 in=46 maxp=1844 sump=11862 np=63 sim=0x1.61ca1f7362ce4p-13");
    ("two_bags/Standard/default",
     "sh=4581 peak=4121 rows=40 st=2 in=45 maxp=2446 sump=14629 np=63 sim=0x1.f9e55ebefd2b6p-13");
    ("two_bags/Shred+Unshred/default",
     "sh=400 bc=2340 peak=1020 rows=66 st=2 in=128 maxp=348 sump=5896 np=105 sim=0x1.abd1aa821f299p-15");
    ("two_bags/SparkSQL/default",
     "sh=4581 peak=4121 rows=40 st=2 in=45 maxp=2446 sump=14629 np=63 sim=0x1.f9e55ebefd2b6p-13");
    ("group_in_nested/Standard/default",
     "sh=1376 peak=1486 rows=41 st=1 in=46 maxp=868 sump=6678 np=56 sim=0x1.67c992db8f5d6p-14");
    ("group_in_nested/Shred+Unshred/default",
     "sh=2353 bc=6036 peak=1932 rows=160 st=6 in=266 maxp=560 sump=15706 np=245 sim=0x1.3f8b05572ce2bp-13");
    ("group_in_nested/SparkSQL/default",
     "sh=2552 peak=3038 rows=36 st=1 in=41 maxp=1780 sump=9096 np=49 sim=0x1.2ed428e1a0996p-13");
    ("union_nested/Standard/default",
     "sh=604 peak=770 rows=34 st=1 in=52 maxp=322 sump=3966 np=84 sim=0x1.830ce540b6ff6p-15");
    ("union_nested/Shred+Unshred/default",
     "sh=272 bc=1296 peak=628 rows=72 st=2 in=132 maxp=252 sump=3774 np=133 sim=0x1.130ffd232bd42p-15");
    ("union_nested/SparkSQL/default",
     "sh=1232 peak=1055 rows=25 st=1 in=43 maxp=778 sump=4408 np=70 sim=0x1.1c8aa5350341fp-14");
    ("union_query/Standard/default",
     "peak=772 rows=32 in=50 maxp=336 sump=2012 np=49 sim=0x1.764cb86a6a2c2p-16");
    ("union_query/Shred+Unshred/default",
     "bc=1704 peak=1264 rows=43 in=83 maxp=560 sump=2472 np=63 sim=0x1.b561cc22d8c8p-16");
    ("union_query/SparkSQL/default",
     "peak=2910 rows=23 in=41 maxp=1716 sump=3817 np=35 sim=0x1.c841a2b7a5734p-15");
    ("cross_price/Standard/default",
     "bc=276 peak=484 rows=31 in=39 maxp=158 sump=1646 np=35 sim=0x1.3660e51d25aabp-17");
    ("cross_price/Shred+Unshred/default",
     "bc=276 peak=484 rows=31 in=39 maxp=158 sump=1646 np=35 sim=0x1.e12ba97c0fc6p-18");
    ("cross_price/SparkSQL/default",
     "bc=348 peak=1503 rows=22 in=30 maxp=638 sump=2428 np=21 sim=0x1.23c17b34ff912p-16");
    ("total_qty/Standard/default",
     "sh=48 peak=772 rows=20 st=1 in=26 maxp=336 sump=1652 np=35 sim=0x1.51b9b1112f7d5p-16");
    ("total_qty/Shred+Unshred/default",
     "sh=48 bc=1704 peak=1264 rows=31 st=1 in=59 maxp=560 sump=2112 np=49 sim=0x1.90cec4c99e193p-16");
    ("total_qty/SparkSQL/default",
     "sh=48 peak=2910 rows=15 st=1 in=21 maxp=1716 sump=3563 np=28 sim=0x1.b9a90399e873fp-15");
    ("example1/Standard/skew",
     "sh=2697 bc=174 peak=2166 rows=68 st=4 in=74 maxp=932 sump=12478 np=112 sim=0x1.1d9714af0ea0dp-13");
    ("example1/Shred+Unshred/skew",
     "sh=4834 bc=174 peak=1532 rows=88 st=11 in=142 maxp=541 sump=13158 np=203 sim=0x1.493b5d4e39c9cp-13");
    ("example1/SparkSQL/skew",
     "sh=3417 bc=174 peak=3262 rows=63 st=4 in=69 maxp=1844 sump=16336 np=105 sim=0x1.8fe28ba5e6033p-13");
    ("flatten/Standard/skew",
     "peak=906 rows=22 in=26 maxp=404 sump=2266 np=28 sim=0x1.9a89d9881c18cp-16");
    ("flatten/Shred+Unshred/skew",
     "sh=1564 peak=1566 rows=33 st=4 in=59 maxp=543 sump=4626 np=70 sim=0x1.fc1915a5aea5cp-15");
    ("flatten/SparkSQL/skew",
     "peak=2910 rows=17 in=21 maxp=1716 sump=3912 np=21 sim=0x1.ca1a14ff159f5p-15");
    ("nested_to_flat/Standard/skew",
     "sh=634 bc=120 peak=906 rows=29 st=3 in=43 maxp=404 sump=3500 np=77 sim=0x1.8ea06c46a52afp-15");
    ("nested_to_flat/Shred+Unshred/skew",
     "sh=2313 bc=120 peak=1470 rows=39 st=7 in=76 maxp=507 sump=6086 np=119 sim=0x1.7f86f3cf9b085p-14");
    ("nested_to_flat/SparkSQL/skew",
     "sh=1600 bc=174 peak=2910 rows=20 st=3 in=34 maxp=1716 sump=7498 np=63 sim=0x1.e4463b22c0ca5p-14");
    ("flat_to_nested/Standard/skew",
     "sh=1080 peak=1080 rows=22 st=3 in=34 maxp=540 sump=2880 np=56 sim=0x1.3cebeea610756p-15");
    ("flat_to_nested/Shred+Unshred/skew",
     "sh=1404 peak=1420 rows=38 st=3 in=62 maxp=710 sump=4440 np=84 sim=0x1.b7e60ae15a787p-15");
    ("flat_to_nested/SparkSQL/skew",
     "sh=1320 peak=1320 rows=18 st=3 in=30 maxp=660 sump=3224 np=49 sim=0x1.75a0ebf358a7cp-15");
    ("select_nested/Standard/skew",
     "peak=818 rows=21 in=27 maxp=277 sump=3122 np=35 sim=0x1.bc98a222d5172p-16");
    ("select_nested/Shred+Unshred/skew",
     "sh=3171 peak=1822 rows=51 st=4 in=83 maxp=1225 sump=9083 np=105 sim=0x1.26405b8fc8b57p-13");
    ("select_nested/SparkSQL/skew",
     "peak=818 rows=16 in=22 maxp=277 sump=2468 np=28 sim=0x1.6504e770671b4p-16");
    ("group_query/Standard/skew",
     "sh=594 peak=826 rows=13 st=1 in=20 maxp=515 sump=2074 np=28 sim=0x1.4031736a85dadp-15");
    ("group_query/Shred+Unshred/skew",
     "sh=2379 peak=906 rows=60 st=9 in=110 maxp=505 sump=6399 np=161 sim=0x1.c88ccc2bbd1d1p-14");
    ("group_query/SparkSQL/skew",
     "sh=1294 peak=1526 rows=8 st=1 in=15 maxp=1155 sump=2820 np=21 sim=0x1.238bcb4fca17cp-14");
    ("dedup_query/Standard/skew",
     "sh=96 peak=772 rows=26 st=1 in=32 maxp=336 sump=1844 np=42 sim=0x1.6f40d588323e2p-16");
    ("dedup_query/Shred+Unshred/skew",
     "sh=1304 peak=1216 rows=37 st=5 in=65 maxp=420 sump=3512 np=84 sim=0x1.9a1e79bdb126p-15");
    ("dedup_query/SparkSQL/skew",
     "sh=96 peak=2910 rows=21 st=1 in=27 maxp=1716 sump=3755 np=35 sim=0x1.c86c95d569d46p-15");
    ("deep_nested/Standard/skew",
     "sh=2266 peak=1614 rows=46 st=2 in=51 maxp=932 sump=8724 np=70 sim=0x1.c3fa6b4095c76p-14");
    ("deep_nested/Shred+Unshred/skew",
     "sh=4287 peak=1587 rows=81 st=8 in=133 maxp=529 sump=11924 np=161 sim=0x1.1c752ba621118p-13");
    ("deep_nested/SparkSQL/skew",
     "sh=3442 peak=3166 rows=41 st=2 in=46 maxp=1844 sump=11862 np=63 sim=0x1.61ca1f7362ce4p-13");
    ("two_bags/Standard/skew",
     "sh=4581 peak=4121 rows=40 st=2 in=45 maxp=2446 sump=14629 np=63 sim=0x1.f9e55ebefd2b6p-13");
    ("two_bags/Shred+Unshred/skew",
     "sh=4616 peak=1970 rows=79 st=10 in=141 maxp=825 sump=12262 np=175 sim=0x1.3b137c5ea0495p-13");
    ("two_bags/SparkSQL/skew",
     "sh=4581 peak=4121 rows=40 st=2 in=45 maxp=2446 sump=14629 np=63 sim=0x1.f9e55ebefd2b6p-13");
    ("group_in_nested/Standard/skew",
     "sh=1376 peak=1486 rows=41 st=1 in=46 maxp=868 sump=6678 np=56 sim=0x1.67c992db8f5d6p-14");
    ("group_in_nested/Shred+Unshred/skew",
     "sh=9090 peak=1708 rows=168 st=18 in=274 maxp=888 sump=24044 np=336 sim=0x1.28fa4a337fdf3p-12");
    ("group_in_nested/SparkSQL/skew",
     "sh=2552 peak=3038 rows=36 st=1 in=41 maxp=1780 sump=9096 np=49 sim=0x1.2ed428e1a0996p-13");
    ("union_nested/Standard/skew",
     "sh=604 peak=770 rows=34 st=1 in=52 maxp=322 sump=3966 np=84 sim=0x1.830ce540b6ff6p-15");
    ("union_nested/Shred+Unshred/skew",
     "sh=1747 peak=909 rows=78 st=7 in=138 maxp=349 sump=5864 np=175 sim=0x1.1decfaea97631p-14");
    ("union_nested/SparkSQL/skew",
     "sh=1232 peak=1055 rows=25 st=1 in=43 maxp=778 sump=4408 np=70 sim=0x1.1c8aa5350341fp-14");
    ("union_query/Standard/skew",
     "peak=772 rows=32 in=50 maxp=336 sump=2012 np=49 sim=0x1.764cb86a6a2c2p-16");
    ("union_query/Shred+Unshred/skew",
     "sh=1208 peak=1216 rows=43 st=4 in=83 maxp=420 sump=3680 np=91 sim=0x1.9da46b2ecd1dp-15");
    ("union_query/SparkSQL/skew",
     "peak=2910 rows=23 in=41 maxp=1716 sump=3817 np=35 sim=0x1.c841a2b7a5734p-15");
    ("cross_price/Standard/skew",
     "bc=276 peak=484 rows=31 in=39 maxp=158 sump=1646 np=35 sim=0x1.3660e51d25aabp-17");
    ("cross_price/Shred+Unshred/skew",
     "bc=276 peak=484 rows=31 in=39 maxp=158 sump=1646 np=35 sim=0x1.e12ba97c0fc6p-18");
    ("cross_price/SparkSQL/skew",
     "bc=348 peak=1503 rows=22 in=30 maxp=638 sump=2428 np=21 sim=0x1.23c17b34ff912p-16");
    ("total_qty/Standard/skew",
     "sh=48 peak=772 rows=20 st=1 in=26 maxp=336 sump=1652 np=35 sim=0x1.51b9b1112f7d5p-16");
    ("total_qty/Shred+Unshred/skew",
     "sh=1256 peak=1216 rows=31 st=5 in=59 maxp=420 sump=3320 np=77 sim=0x1.8cb2807052ce5p-15");
    ("total_qty/SparkSQL/skew",
     "sh=48 peak=2910 rows=15 st=1 in=21 maxp=1716 sump=3563 np=28 sim=0x1.b9a90399e873fp-15");
    ("example1/Standard/nocogroup",
     "sh=1517 bc=696 peak=2705 rows=68 st=2 in=74 maxp=1164 sump=11298 np=91 sim=0x1.02693bd8c92f6p-13");
    ("example1/Shred+Unshred/nocogroup",
     "sh=2870 bc=2508 peak=1540 rows=88 st=5 in=142 maxp=657 sump=11194 np=154 sim=0x1.0766fc8e5b77fp-13");
    ("example1/SparkSQL/nocogroup",
     "sh=1517 bc=696 peak=4713 rows=63 st=2 in=69 maxp=2076 sump=14436 np=84 sim=0x1.6a38580b2edd3p-13");
    ("flatten/Standard/nocogroup",
     "peak=906 rows=22 in=26 maxp=404 sump=2266 np=28 sim=0x1.9a89d9881c18cp-16");
    ("flatten/Shred+Unshred/nocogroup",
     "bc=2100 peak=1626 rows=33 in=59 maxp=724 sump=3062 np=42 sim=0x1.06fb9cc3f0854p-15");
    ("flatten/SparkSQL/nocogroup",
     "peak=2910 rows=17 in=21 maxp=1716 sump=3912 np=21 sim=0x1.ca1a14ff159f5p-15");
    ("nested_to_flat/Standard/nocogroup",
     "sh=74 bc=480 peak=1228 rows=28 st=1 in=43 maxp=564 sump=2903 np=56 sim=0x1.4234d8cfba67fp-15");
    ("nested_to_flat/Shred+Unshred/nocogroup",
     "sh=74 bc=2400 peak=1840 rows=39 st=1 in=76 maxp=836 sump=3847 np=70 sim=0x1.9a745ff939e84p-15");
    ("nested_to_flat/SparkSQL/nocogroup",
     "sh=74 bc=696 peak=4140 rows=19 st=1 in=34 maxp=1948 sump=5935 np=42 sim=0x1.8f81e8a2ec28bp-14");
    ("flat_to_nested/Standard/nocogroup",
     "sh=648 bc=696 peak=656 rows=22 st=1 in=34 maxp=216 sump=2448 np=42 sim=0x1.3c152f113a9p-16");
    ("flat_to_nested/Shred+Unshred/nocogroup",
     "sh=1100 bc=792 peak=842 rows=38 st=2 in=62 maxp=284 sump=4136 np=77 sim=0x1.2a4c84bdea5bdp-15");
    ("flat_to_nested/SparkSQL/nocogroup",
     "sh=792 bc=696 peak=776 rows=18 st=1 in=30 maxp=264 sump=2696 np=35 sim=0x1.690bb23ad0359p-16");
    ("select_nested/Standard/nocogroup",
     "peak=818 rows=21 in=27 maxp=277 sump=3122 np=35 sim=0x1.bc98a222d5172p-16");
    ("select_nested/Shred+Unshred/nocogroup",
     "sh=2136 bc=2100 peak=1882 rows=51 st=2 in=83 maxp=852 sump=8048 np=91 sim=0x1.9540ef5e72263p-14");
    ("select_nested/SparkSQL/nocogroup",
     "peak=818 rows=16 in=22 maxp=277 sump=2468 np=28 sim=0x1.6504e770671b4p-16");
    ("group_query/Standard/nocogroup",
     "sh=594 peak=826 rows=13 st=1 in=20 maxp=515 sump=2074 np=28 sim=0x1.4031736a85dadp-15");
    ("group_query/Shred+Unshred/nocogroup",
     "sh=1092 bc=2046 peak=913 rows=60 st=3 in=110 maxp=505 sump=5112 np=119 sim=0x1.2ac2a14fc666dp-14");
    ("group_query/SparkSQL/nocogroup",
     "sh=1294 peak=1526 rows=8 st=1 in=15 maxp=1155 sump=2820 np=21 sim=0x1.238bcb4fca17cp-14");
    ("dedup_query/Standard/nocogroup",
     "sh=96 peak=772 rows=26 st=1 in=32 maxp=336 sump=1844 np=42 sim=0x1.6f40d588323e2p-16");
    ("dedup_query/Shred+Unshred/nocogroup",
     "sh=96 bc=1704 peak=1264 rows=37 st=1 in=65 maxp=560 sump=2304 np=56 sim=0x1.ae55e940a0da1p-16");
    ("dedup_query/SparkSQL/nocogroup",
     "sh=96 peak=2910 rows=21 st=1 in=27 maxp=1716 sump=3755 np=35 sim=0x1.c86c95d569d46p-15");
    ("deep_nested/Standard/nocogroup",
     "sh=2266 peak=1614 rows=46 st=2 in=51 maxp=932 sump=8724 np=70 sim=0x1.c3fa6b4095c76p-14");
    ("deep_nested/Shred+Unshred/nocogroup",
     "sh=2689 bc=1920 peak=1609 rows=81 st=4 in=133 maxp=639 sump=10326 np=133 sim=0x1.c943556a3fb9ep-14");
    ("deep_nested/SparkSQL/nocogroup",
     "sh=3442 peak=3166 rows=41 st=2 in=46 maxp=1844 sump=11862 np=63 sim=0x1.61ca1f7362ce4p-13");
    ("two_bags/Standard/nocogroup",
     "sh=4581 peak=4121 rows=40 st=2 in=45 maxp=2446 sump=14629 np=63 sim=0x1.f9e55ebefd2b6p-13");
    ("two_bags/Shred+Unshred/nocogroup",
     "sh=2550 bc=2340 peak=1741 rows=79 st=4 in=141 maxp=666 sump=10196 np=133 sim=0x1.cc12bd9cd9143p-14");
    ("two_bags/SparkSQL/nocogroup",
     "sh=4581 peak=4121 rows=40 st=2 in=45 maxp=2446 sump=14629 np=63 sim=0x1.f9e55ebefd2b6p-13");
    ("group_in_nested/Standard/nocogroup",
     "sh=1376 peak=1486 rows=41 st=1 in=46 maxp=868 sump=6678 np=56 sim=0x1.67c992db8f5d6p-14");
    ("group_in_nested/Shred+Unshred/nocogroup",
     "sh=3954 bc=6036 peak=2223 rows=168 st=7 in=274 maxp=932 sump=18908 np=259 sim=0x1.99b319f346336p-13");
    ("group_in_nested/SparkSQL/nocogroup",
     "sh=2552 peak=3038 rows=36 st=1 in=41 maxp=1780 sump=9096 np=49 sim=0x1.2ed428e1a0996p-13");
    ("union_nested/Standard/nocogroup",
     "sh=604 peak=770 rows=34 st=1 in=52 maxp=322 sump=3966 np=84 sim=0x1.830ce540b6ff6p-15");
    ("union_nested/Shred+Unshred/nocogroup",
     "sh=887 bc=1296 peak=628 rows=78 st=3 in=138 maxp=252 sump=5004 np=147 sim=0x1.88d6a8c3ae153p-15");
    ("union_nested/SparkSQL/nocogroup",
     "sh=1232 peak=1055 rows=25 st=1 in=43 maxp=778 sump=4408 np=70 sim=0x1.1c8aa5350341fp-14");
    ("union_query/Standard/nocogroup",
     "peak=772 rows=32 in=50 maxp=336 sump=2012 np=49 sim=0x1.764cb86a6a2c2p-16");
    ("union_query/Shred+Unshred/nocogroup",
     "bc=1704 peak=1264 rows=43 in=83 maxp=560 sump=2472 np=63 sim=0x1.b561cc22d8c8p-16");
    ("union_query/SparkSQL/nocogroup",
     "peak=2910 rows=23 in=41 maxp=1716 sump=3817 np=35 sim=0x1.c841a2b7a5734p-15");
    ("cross_price/Standard/nocogroup",
     "bc=276 peak=484 rows=31 in=39 maxp=158 sump=1646 np=35 sim=0x1.3660e51d25aabp-17");
    ("cross_price/Shred+Unshred/nocogroup",
     "bc=276 peak=484 rows=31 in=39 maxp=158 sump=1646 np=35 sim=0x1.e12ba97c0fc6p-18");
    ("cross_price/SparkSQL/nocogroup",
     "bc=348 peak=1503 rows=22 in=30 maxp=638 sump=2428 np=21 sim=0x1.23c17b34ff912p-16");
    ("total_qty/Standard/nocogroup",
     "sh=48 peak=772 rows=20 st=1 in=26 maxp=336 sump=1652 np=35 sim=0x1.51b9b1112f7d5p-16");
    ("total_qty/Shred+Unshred/nocogroup",
     "sh=48 bc=1704 peak=1264 rows=31 st=1 in=59 maxp=560 sump=2112 np=49 sim=0x1.90cec4c99e193p-16");
    ("total_qty/SparkSQL/nocogroup",
     "sh=48 peak=2910 rows=15 st=1 in=21 maxp=1716 sump=3563 np=28 sim=0x1.b9a90399e873fp-15");
    ("example1/Standard/shuffle",
     "sh=3253 peak=1905 rows=68 st=4 in=74 maxp=932 sump=13034 np=105 sim=0x1.146796114edcdp-13");
    ("example1/Shred+Unshred/shuffle",
     "sh=3360 peak=1326 rows=81 st=8 in=135 maxp=457 sump=10384 np=168 sim=0x1.f02fa86437b8p-14");
    ("example1/SparkSQL/shuffle",
     "sh=4429 peak=3185 rows=63 st=4 in=69 maxp=1844 sump=17348 np=98 sim=0x1.84afa7a2f1b2p-13");
    ("flatten/Standard/shuffle",
     "peak=906 rows=22 in=26 maxp=404 sump=2266 np=28 sim=0x1.9a89d9881c18cp-16");
    ("flatten/Shred+Unshred/shuffle",
     "sh=1564 peak=1566 rows=33 st=4 in=59 maxp=543 sump=4626 np=70 sim=0x1.fc1915a5aea5cp-15");
    ("flatten/SparkSQL/shuffle",
     "peak=2910 rows=17 in=21 maxp=1716 sump=3912 np=21 sim=0x1.ca1a14ff159f5p-15");
    ("nested_to_flat/Standard/shuffle",
     "sh=876 peak=906 rows=29 st=3 in=43 maxp=404 sump=3742 np=70 sim=0x1.76cd91c3b74f6p-15");
    ("nested_to_flat/Shred+Unshred/shuffle",
     "sh=2728 peak=1470 rows=40 st=7 in=76 maxp=507 sump=6538 np=112 sim=0x1.67333ff360098p-14");
    ("nested_to_flat/SparkSQL/shuffle",
     "sh=2548 peak=2910 rows=20 st=3 in=34 maxp=1716 sump=8446 np=56 sim=0x1.d33ed6d5644b1p-14");
    ("flat_to_nested/Standard/shuffle",
     "sh=432 peak=872 rows=16 st=2 in=28 maxp=346 sump=1584 np=42 sim=0x1.d369c9f328ac2p-16");
    ("flat_to_nested/Shred+Unshred/shuffle",
     "sh=552 peak=1008 rows=32 st=2 in=56 maxp=346 sump=2736 np=70 sim=0x1.39e6d68e41a1cp-15");
    ("flat_to_nested/SparkSQL/shuffle",
     "sh=1320 peak=1320 rows=18 st=3 in=30 maxp=660 sump=3224 np=49 sim=0x1.75a0ebf358a7cp-15");
    ("select_nested/Standard/shuffle",
     "peak=818 rows=21 in=27 maxp=277 sump=3122 np=35 sim=0x1.bc98a222d5172p-16");
    ("select_nested/Shred+Unshred/shuffle",
     "sh=1734 peak=1223 rows=44 st=3 in=76 maxp=457 sump=6209 np=91 sim=0x1.281e2c3af16d9p-14");
    ("select_nested/SparkSQL/shuffle",
     "peak=818 rows=16 in=22 maxp=277 sump=2468 np=28 sim=0x1.6504e770671b4p-16");
    ("group_query/Standard/shuffle",
     "sh=594 peak=826 rows=13 st=1 in=20 maxp=515 sump=2074 np=28 sim=0x1.4031736a85dadp-15");
    ("group_query/Shred+Unshred/shuffle",
     "sh=1626 peak=751 rows=55 st=7 in=105 maxp=301 sump=5020 np=140 sim=0x1.601ca049b7033p-14");
    ("group_query/SparkSQL/shuffle",
     "sh=1294 peak=1526 rows=8 st=1 in=15 maxp=1155 sump=2820 np=21 sim=0x1.238bcb4fca17cp-14");
    ("dedup_query/Standard/shuffle",
     "sh=96 peak=772 rows=26 st=1 in=32 maxp=336 sump=1844 np=42 sim=0x1.6f40d588323e2p-16");
    ("dedup_query/Shred+Unshred/shuffle",
     "sh=1304 peak=1216 rows=37 st=5 in=65 maxp=420 sump=3512 np=84 sim=0x1.9a1e79bdb126p-15");
    ("dedup_query/SparkSQL/shuffle",
     "sh=96 peak=2910 rows=21 st=1 in=27 maxp=1716 sump=3755 np=35 sim=0x1.c86c95d569d46p-15");
    ("deep_nested/Standard/shuffle",
     "sh=2266 peak=1614 rows=46 st=2 in=51 maxp=932 sump=8724 np=70 sim=0x1.c3fa6b4095c76p-14");
    ("deep_nested/Shred+Unshred/shuffle",
     "sh=2560 peak=1326 rows=74 st=5 in=126 maxp=457 sump=8870 np=133 sim=0x1.933d89f93d99p-14");
    ("deep_nested/SparkSQL/shuffle",
     "sh=3442 peak=3166 rows=41 st=2 in=46 maxp=1844 sump=11862 np=63 sim=0x1.61ca1f7362ce4p-13");
    ("two_bags/Standard/shuffle",
     "sh=4581 peak=4121 rows=40 st=2 in=45 maxp=2446 sump=14629 np=63 sim=0x1.f9e55ebefd2b6p-13");
    ("two_bags/Shred+Unshred/shuffle",
     "sh=2186 peak=1588 rows=66 st=6 in=128 maxp=432 sump=7682 np=133 sim=0x1.76b81834d51eep-14");
    ("two_bags/SparkSQL/shuffle",
     "sh=4581 peak=4121 rows=40 st=2 in=45 maxp=2446 sump=14629 np=63 sim=0x1.f9e55ebefd2b6p-13");
    ("group_in_nested/Standard/shuffle",
     "sh=1376 peak=1486 rows=41 st=1 in=46 maxp=868 sump=6678 np=56 sim=0x1.67c992db8f5d6p-14");
    ("group_in_nested/Shred+Unshred/shuffle",
     "sh=7217 peak=1628 rows=160 st=16 in=266 maxp=888 sump=20570 np=315 sim=0x1.fa6b967c02daep-13");
    ("group_in_nested/SparkSQL/shuffle",
     "sh=2552 peak=3038 rows=36 st=1 in=41 maxp=1780 sump=9096 np=49 sim=0x1.2ed428e1a0996p-13");
    ("union_nested/Standard/shuffle",
     "sh=604 peak=770 rows=34 st=1 in=52 maxp=322 sump=3966 np=84 sim=0x1.830ce540b6ff6p-15");
    ("union_nested/Shred+Unshred/shuffle",
     "sh=1020 peak=714 rows=72 st=5 in=132 maxp=252 sump=4522 np=154 sim=0x1.b97e107c2412fp-15");
    ("union_nested/SparkSQL/shuffle",
     "sh=1232 peak=1055 rows=25 st=1 in=43 maxp=778 sump=4408 np=70 sim=0x1.1c8aa5350341fp-14");
    ("union_query/Standard/shuffle",
     "peak=772 rows=32 in=50 maxp=336 sump=2012 np=49 sim=0x1.764cb86a6a2c2p-16");
    ("union_query/Shred+Unshred/shuffle",
     "sh=1208 peak=1216 rows=43 st=4 in=83 maxp=420 sump=3680 np=91 sim=0x1.9da46b2ecd1dp-15");
    ("union_query/SparkSQL/shuffle",
     "peak=2910 rows=23 in=41 maxp=1716 sump=3817 np=35 sim=0x1.c841a2b7a5734p-15");
    ("cross_price/Standard/shuffle",
     "bc=276 peak=484 rows=31 in=39 maxp=158 sump=1646 np=35 sim=0x1.3660e51d25aabp-17");
    ("cross_price/Shred+Unshred/shuffle",
     "bc=276 peak=484 rows=31 in=39 maxp=158 sump=1646 np=35 sim=0x1.e12ba97c0fc6p-18");
    ("cross_price/SparkSQL/shuffle",
     "bc=348 peak=1503 rows=22 in=30 maxp=638 sump=2428 np=21 sim=0x1.23c17b34ff912p-16");
    ("total_qty/Standard/shuffle",
     "sh=48 peak=772 rows=20 st=1 in=26 maxp=336 sump=1652 np=35 sim=0x1.51b9b1112f7d5p-16");
    ("total_qty/Shred+Unshred/shuffle",
     "sh=1256 peak=1216 rows=31 st=5 in=59 maxp=420 sump=3320 np=77 sim=0x1.8cb2807052ce5p-15");
    ("total_qty/SparkSQL/shuffle",
     "sh=48 peak=2910 rows=15 st=1 in=21 maxp=1716 sump=3563 np=28 sim=0x1.b9a90399e873fp-15");
  ]

(* ------------------------------------------------------------------ *)
(* Gamma-plus carries each partial row's shuffle hash from its combine
   through the shuffle into its reduce. Four shapes: every G-key probed;
   an id probing for the G-key it determines, which the combine hashes
   once per G-group; no G-keys, shuffled by the aggregation key; and a
   global aggregate, gathered with nothing carried. Each must answer as
   the local interpreter does and charge the counters recorded before the
   hashes were carried, at every domain count. *)

let gamma_plus_inputs =
  [ ( "R",
      V.Bag
        (List.init 60 (fun i ->
             V.Tuple
               [ ("k", V.Int (i mod 5));
                 ( "items",
                   V.Bag
                     (List.init (i mod 4) (fun j ->
                          V.Tuple
                            [ ("m", V.Int ((i + j) mod 5)); ("n", V.Int ((i * j) + 1)) ])) ) ]))
    ) ]

let gamma_plus_shapes =
  let unnested =
    Op.Unnest
      { input = Op.AddIndex { input = Op.Scan { input = "R"; binder = "r" }; col = "id" };
        path = [ "r"; "items" ]; binder = "i"; outer = true; drop = false }
  in
  let nest_sum keys agg_keys =
    Op.NestSum
      { input = unnested; keys; agg_keys; aggs = [ ("s", S.path "i" [ "n" ]) ];
        presence = S.Not (S.IsNull (S.Col [ "i" ])) }
  in
  let k = ("k", S.path "r" [ "k" ]) and m = ("m", S.path "i" [ "m" ]) in
  let without_id op =
    Op.Project (List.map (fun c -> (c, S.Col [ c ])) [ "k"; "m"; "s" ], op)
  in
  (* each with its counters, recorded on the executor that hashed every
     key in the combine, the shuffle and the reduce *)
  [ ( "all G-keys probed",
      nest_sum [ k; m ] [],
      "sh=4071 peak=10455 rows=272 st=1 in=285 maxp=2890 sump=32962 np=35 sim=0x1.2cc606b4faf4p-13" );
    ( "an id probes for k",
      without_id (nest_sum [ ("id", S.Col [ "id" ]); k ] [ m ]),
      "sh=6615 peak=10455 rows=480 st=1 in=390 maxp=2890 sump=48675 np=42 sim=0x1.edb6266d271fep-13" );
    ( "no G-keys",
      nest_sum [] [ m ],
      "sh=1120 peak=10455 rows=205 st=1 in=285 maxp=2890 sump=26295 np=35 sim=0x1.d89d3a8df06e2p-14" );
    ( "global",
      nest_sum [] [],
      "sh=112 peak=10455 rows=173 st=1 in=285 maxp=2890 sump=24023 np=28 sim=0x1.774e6b1d0472bp-14" ) ]

let test_gamma_plus_carried () =
  let expected plan =
    Plan.Local_eval.eval_to_bag (Plan.Local_eval.env_of_list gamma_plus_inputs) plan
  in
  let config =
    { cluster with checkpoint = Exec.Config.No_checkpoints; spill = Exec.Config.Off }
  in
  let lines =
    List.concat_map
      (fun (name, plan, line) ->
        List.map
          (fun domains ->
            let config = { config with domains } in
            let env =
              Exec.Executor.env_of_list
                (List.map
                   (fun (n, v) -> (n, Exec.Dataset.of_bag ~partitions:config.partitions v))
                   gamma_plus_inputs)
            in
            let stats = Exec.Stats.create () and trace = Exec.Trace.create () in
            Exec.Executor.reset_ids ();
            let ds = Exec.Executor.run_plan ~trace ~config ~stats env plan in
            Fixtures.check_bag_equal
              (Printf.sprintf "%s, %d domains" name domains)
              (expected plan) (Exec.Dataset.to_bag ds);
            ( name, domains, line,
              golden_line
                (Exec.Stats.strip_wall (Exec.Stats.snapshot stats))
                (Exec.Trace.agg (Exec.Trace.roots trace)) ))
          [ 1; 2; 4 ])
      gamma_plus_shapes
  in
  let bad = List.filter (fun (_, _, line, actual) -> line <> actual) lines in
  if bad <> [] then
    Alcotest.failf "%d of %d counter lines differ; actual:@.%s" (List.length bad)
      (List.length lines)
      (String.concat "\n"
         (List.map (fun (n, d, _, l) -> Printf.sprintf "    %s, %d domains: %S" n d l) bad))

let test_golden_counters () =
  let runs = golden_runs () in
  let actual =
    List.map
      (fun (key, (r : Trance.Api.run)) ->
        ( key,
          golden_line
            (Exec.Stats.strip_wall (Exec.Stats.snapshot r.stats))
            (Exec.Trace.agg r.trace) ))
      runs
  in
  let bad =
    List.filter
      (fun (key, line) -> List.assoc_opt key golden_table <> Some line)
      actual
  in
  if bad <> [] then
    Alcotest.failf "%d of %d golden rows differ; actual:@.%s" (List.length bad)
      (List.length actual)
      (String.concat "\n"
         (List.map (fun (k, l) -> Printf.sprintf "    (%S,\n     %S);" k l) bad));
  (* the table must reach every sizing path of the executor *)
  let spans = List.concat_map (fun (_, (r : Trance.Api.run)) -> r.trace) runs in
  let reached what pred =
    check ("golden table reaches " ^ what) true
      (Exec.Trace.find_all pred spans <> [])
  in
  List.iter
    (fun (what, stage) -> reached what (fun sp -> sp.Exec.Trace.stage = stage))
    [
      ("the broadcast join", "join(broadcast)");
      ("the shuffle join", "join(shuffle)");
      ("the broadcast cogroup", "cogroup(broadcast)");
      ("the shuffle cogroup", "cogroup");
      ("the gather", "gather");
      ("the product", "product");
      ("the skew split", "join(skew)");
    ];
  List.iter
    (fun op -> reached op (fun sp -> sp.Exec.Trace.op = op))
    [ "UnionAll"; "Unnest"; "AddIndex"; "NestSum"; "Dedup"; "BagToDict";
      "Cogroup" ];
  reached "a skew split with heavy keys" (fun sp ->
      match sp.Exec.Trace.strategy with
      | Some (Exec.Trace.Skew_split _) -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Scalar conditionals *)

(* A scalar [if] in a head, with string and int branches at the top
   levels and a real one inside the innermost: every route answers like
   Nrc.Eval. Shred's answer holds labels, so it must only complete. *)
let scalar_if =
  let if_ c a b = Nrc.Expr.If (c, a, Some b) in
  B.(
    for_ "cop" (input "COP") (fun cop ->
        sng
          (record
             [
               ("cname", cop #. "cname");
               ("who", if_ (cop #. "cname" == str "alice") (str "A") (str "other"));
               ( "corders",
                 for_ "co" (cop #. "corders") (fun co ->
                     sng
                       (record
                          [
                            ("early", if_ (co #. "odate" < date 102) (int_ 1) (int_ 0));
                            ( "oparts",
                              for_ "op" (co #. "oparts") (fun op ->
                                  sng
                                    (record
                                       [
                                         ("pid", op #. "pid");
                                         ( "qty",
                                           if_ (op #. "qty" > real 1.5) (op #. "qty")
                                             (real 0.) );
                                       ])) );
                          ])) );
             ])))

let test_scalar_if () =
  List.iter
    (fun strategy ->
      let sname = Trance.Api.strategy_name strategy in
      let r = run_strategy strategy scalar_if in
      match r.Trance.Api.failure, strategy with
      | Some f, _ -> Alcotest.failf "%s failed: %s" sname (Trance.Api.failure_message f)
      | None, Trance.Api.Shredded { unshred = false } -> ()
      | None, _ ->
        Fixtures.check_bag_equal sname (Fixtures.eval_ref scalar_if)
          (Option.get r.Trance.Api.value))
    (Trance.Api.Shredded { unshred = false } :: strategies)

(* ------------------------------------------------------------------ *)
(* Total entry point: Api.run on boundary configurations *)

let gen_boundary_config : Trance.Api.config QCheck.Gen.t =
  let open QCheck.Gen in
  let* workers = oneofl [ 1; 3 ]
  and* partitions = oneofl [ 1; 7 ]
  and* broadcast_limit = oneofl [ 0; Exec.Config.default.broadcast_limit ]
  and* worker_mem = oneofl [ 1024; 16 * 1024; 1024 * 1024; max_int ]
  and* spill = oneofl Exec.Config.[ On; Off ]
  and* checkpoint = oneofl Exec.Config.[ No_checkpoints; Every 1; Every 2; Auto ]
  and* deadline = oneofl [ None; Some 1e-9 ]
  and* faults =
    oneof
      [
        return [];
        map
          (fun (kind, stage) -> [ { (Exec.Faults.default_spec kind) with stage } ])
          (pair
             (oneofl
                Exec.Faults.
                  [ Worker_crash; Task_failure; Fetch_failure; Straggler; Mem_squeeze ])
             (int_bound 4));
        map (fun n -> Exec.Faults.storm n) (int_range 2 4);
      ]
  and* domains = oneofl [ 1; 2 ]
  and* skew_aware = bool
  and* cogroup = bool
  and* optimizer = oneofl Plan.Optimize.[ default; none ]
  and* domain_elimination = bool in
  return
    { Trance.Api.default_config with
      cluster =
        { Exec.Config.default with
          workers; partitions; broadcast_limit; worker_mem; spill; checkpoint;
          deadline; domains };
      skew_aware; cogroup; optimizer; faults;
      materializer = { Trance.Materialize.domain_elimination } }

let print_boundary_run ((case, (c : Trance.Api.config)), strategy) =
  Fmt.str "%s@.%s on %s@.faults [%s] skew_aware %b cogroup %b optimizer %s \
           domain_elimination %b"
    (Qgen.print_lookalike case) (Trance.Api.strategy_name strategy)
    (Exec.Json.to_string (Obj (Exec.Config.json_fields c.cluster)))
    (Exec.Faults.schedule_to_string c.faults)
    c.skew_aware c.cogroup
    (if c.optimizer = Plan.Optimize.none then "none" else "default")
    c.materializer.domain_elimination

let arbitrary_boundary_run =
  QCheck.make ~print:print_boundary_run
    QCheck.Gen.(
      pair (pair Qgen.gen_lookalike gen_boundary_config)
        (oneofl route_strategies))

(* Any program, configuration and route either answers like Nrc.Eval or
   fails typed on memory, a task or the deadline: Api.run never raises and
   never reports [Error] for a valid configuration and a well-typed
   program. The programs' target and input names look like the names
   shredding generates; a target that takes an input's name can leave a
   later query ill-typed, which must fail as [Error]. *)
let prop_run_total =
  QCheck.Test.make ~name:"Api.run is total on boundary configurations"
    ~count:(Fixtures.qcheck_count 300) arbitrary_boundary_run
    (fun (((prog, inputs), config), strategy) ->
      let well_typed =
        match Nrc.Program.typecheck prog with
        | _ -> true
        | exception Nrc.Typecheck.Type_error _ -> false
      in
      match Trance.Api.run ~config ~strategy prog inputs with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | r -> (
        match r.Trance.Api.failure, r.Trance.Api.value, strategy with
        | Some (Trance.Api.Error _), _, _ when not well_typed -> true
        | failure, _, _ when not well_typed ->
          QCheck.Test.fail_reportf "an ill-typed program did not fail on its type: %s"
            (match failure with Some f -> Trance.Api.failure_message f | None -> "it ran")
        | Some (Trance.Api.Out_of_memory _ | Task_failed _ | Deadline_missed _), _, _ ->
          true
        | Some (Trance.Api.Error msg), _, _ -> QCheck.Test.fail_reportf "Error: %s" msg
        | None, _, Trance.Api.Shredded { unshred = false } -> true
        | None, Some v, _ -> V.approx_bag_equal (Nrc.Program.eval_result prog inputs) v
        | None, None, _ -> QCheck.Test.fail_report "no answer and no failure"))

(* ------------------------------------------------------------------ *)
(* Configuration: validation and the environment hooks *)

(* one rejected value per validated field: each is refused by
   [Config.validate], and [Api.run] reports it as a typed [Error] *)
let invalid_configs =
  let c = cluster in
  [
    ("workers = 0", { c with Exec.Config.workers = 0 });
    ("partitions = 0", { c with partitions = 0 });
    ("domains = 0", { c with domains = 0 });
    ("max_task_attempts = 0", { c with max_task_attempts = 0 });
    ("sample_per_partition = 0", { c with sample_per_partition = 0 });
    ("heavy_threshold = nan", { c with heavy_threshold = Float.nan });
    ("fault_rate = nan", { c with fault_rate = Float.nan });
    ("cpu_weight = nan", { c with cpu_weight = Float.nan });
    ("net_weight = -1", { c with net_weight = -1. });
    ("disk_weight = inf", { c with disk_weight = Float.infinity });
    ("deadline = 0", { c with deadline = Some 0. });
    (* each would otherwise run as a different setting than asked for *)
    ("checkpoint = every=0", { c with checkpoint = Exec.Config.Every 0 });
    ("checkpoint = every=-5", { c with checkpoint = Exec.Config.Every (-5) });
    ("checkpoint_replication = 0", { c with checkpoint_replication = 0 });
    ("checkpoint_replication = -2", { c with checkpoint_replication = -2 });
    ("max_spill_rounds = 0", { c with spill = Exec.Config.On; max_spill_rounds = 0 });
    ("max_spill_rounds = -1", { c with spill = Exec.Config.On; max_spill_rounds = -1 });
  ]

let test_validate_rejects (what, c) () =
  let field = List.hd (String.split_on_char ' ' what) in
  (match Exec.Config.validate c with
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error msg -> check (what ^ ": message names the field") true (contains msg field));
  let r =
    Trance.Api.run
      ~config:{ Trance.Api.default_config with cluster = c }
      ~strategy:Trance.Api.Standard
      (Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.example1)
      Fixtures.inputs_val
  in
  match r.Trance.Api.failure with
  | Some (Trance.Api.Error msg) ->
    check (what ^ ": run fails typed") true (contains msg field);
    check (what ^ ": nothing ran") true (r.Trance.Api.steps = [])
  | _ -> Alcotest.failf "%s: expected a typed Error" what

(* More domains than the runtime can start (OCaml 5.1 caps live domains
   at 128) ends the run typed, naming the count; the lanes spawned before
   the runtime refused are joined, so a pool still starts afterwards. *)
let test_domain_limit () =
  let r =
    Trance.Api.run
      ~config:
        { Trance.Api.default_config with cluster = { cluster with domains = 129 } }
      ~strategy:Trance.Api.Standard
      (Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.example1)
      Fixtures.inputs_val
  in
  (match r.Trance.Api.failure with
  | Some (Trance.Api.Error msg) ->
    check "the failure names the domain count" true (contains msg "129 domains");
    check "nothing ran" true (r.Trance.Api.steps = [])
  | _ -> Alcotest.fail "expected a typed Error");
  Exec.Pool.with_pool ~domains:8 (fun pool ->
      Alcotest.(check int) "a pool starts afterwards" 8 (Exec.Pool.size pool))

let test_validate_accepts () =
  check "the default configuration is valid" true
    (Exec.Config.validate Exec.Config.default = Ok Exec.Config.default);
  check "a positive deadline is valid" true
    (Result.is_ok
       (Exec.Config.validate { cluster with Exec.Config.deadline = Some 1e-9 }))

(* [run.config] is the configuration the run executed under: a SparkSQL
   run has the cogroup fusion off, and its run_json says so. *)
let test_effective_cogroup () =
  List.iter
    (fun (strategy, cogroup) ->
      let r = run_strategy strategy Fixtures.flat_to_nested in
      let what = Trance.Api.strategy_name strategy in
      check (what ^ ": config.cogroup") cogroup r.Trance.Api.config.cogroup;
      check (what ^ ": run_json config") true
        (contains (Trance.Api.run_json r) (Printf.sprintf "\"cogroup\":%b" cogroup)))
    [ (Trance.Api.SparkSQL_proxy, false); (Trance.Api.Standard, true) ]

let with_env vars =
  Exec.Config.with_env (fun name -> List.assoc_opt name vars) cluster

let test_env_hooks_parse () =
  match
    with_env
      [
        ("TRANCE_DOMAINS", "3");
        ("TRANCE_WORKER_MEM", "8");
        ("TRANCE_SPILL", "on");
        ("TRANCE_CHECKPOINT", "every=2");
      ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    Alcotest.(check int) "domains" 3 c.Exec.Config.domains;
    Alcotest.(check int) "worker_mem (MB)" (8 * 1048576) c.Exec.Config.worker_mem;
    check "spill" true (c.Exec.Config.spill = Exec.Config.On);
    check "checkpoint" true (c.Exec.Config.checkpoint = Exec.Config.Every 2);
    check "unbounded memory" true
      (with_env [ ("TRANCE_WORKER_MEM", "unbounded") ]
      |> Result.map (fun c -> c.Exec.Config.worker_mem)
      = Ok max_int);
    check "unset and empty variables change nothing" true
      (with_env [] = Ok cluster && with_env [ ("TRANCE_SPILL", "") ] = Ok cluster)

let test_env_hooks_reject () =
  List.iter
    (fun (var, value, accepted) ->
      match with_env [ (var, value) ] with
      | Ok _ -> Alcotest.failf "%s=%s accepted" var value
      | Error msg ->
        Alcotest.(check string)
          (var ^ "=" ^ value)
          (Printf.sprintf "%s=%S: expected %s" var value accepted)
          msg)
    [
      ("TRANCE_DOMAINS", "abc", "a domain count >= 1");
      ("TRANCE_DOMAINS", "0", "a domain count >= 1");
      ("TRANCE_WORKER_MEM", "-3", "a positive number of MB, or unbounded");
      ("TRANCE_WORKER_MEM", "abc", "a positive number of MB, or unbounded");
      ("TRANCE_SPILL", "maybe", "on or off");
      ("TRANCE_CHECKPOINT", "every=0", "off, every=K with K >= 1, or auto");
    ]

let () =
  Alcotest.run "exec"
    [
      ( "datasets",
        [
          Alcotest.test_case "of_bag/to_bag roundtrip" `Quick
            test_dataset_roundtrip;
          Alcotest.test_case "key guarantee" `Quick test_dataset_key_guarantee;
        ] );
      ("executor corpus", executor_corpus);
      ("strategies", strategy_tests);
      ( "skew",
        [
          Alcotest.test_case "heavy keys + skew join" `Quick test_heavy_keys;
          Alcotest.test_case "skew join shuffles less" `Quick
            test_skew_join_less_imbalance;
          Alcotest.test_case "heavy-key detection bounds" `Quick
            test_heavy_key_detection_bounds;
        ] );
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest prop_partition_preserves_bag;
          QCheck_alcotest.to_alcotest prop_key_guarantee;
        ] );
      ( "memory",
        [
          Alcotest.test_case "OOM reported as failure" `Quick test_oom_failure;
          Alcotest.test_case "stray exception reported as Error" `Quick
            test_stray_exception_typed;
        ]
        @ List.map
            (fun s ->
              Alcotest.test_case
                ("division by zero fails typed [" ^ Trance.Api.strategy_name s ^ "]")
                `Quick (test_division_by_zero s))
            route_strategies );
      ( "bag-valued keys",
        [
          Alcotest.test_case "plans keyed by bags agree with Nrc.Eval" `Quick
            test_bag_keyed_plans;
          Alcotest.test_case "a union over a dropping unnest agrees with Nrc.Eval" `Quick
            test_union_over_dropping_unnest;
          Alcotest.test_case "source programs cannot key on bags" `Quick
            test_bag_keyed_source_rejected;
          Alcotest.test_case "compile errors fail typed, every route" `Quick
            test_compile_errors_typed;
          Alcotest.test_case "rows holding bags, every route" `Quick
            test_bag_carrying_routes;
          Alcotest.test_case "user names like generated ones, every route"
            `Quick test_generated_name_lookalikes;
        ] );
      ( "decisions",
        [
          Alcotest.test_case "broadcast vs shuffle" `Quick
            test_broadcast_decision;
          Alcotest.test_case "shred shuffles less" `Quick
            test_shred_shuffles_less;
        ] );
      ( "golden",
        [
          Alcotest.test_case "simulated counters match the recorded table"
            `Quick test_golden_counters;
          Alcotest.test_case "Gamma-plus carrying its hashes: answers and counters"
            `Quick test_gamma_plus_carried;
        ] );
      ( "scalar conditionals",
        [ Alcotest.test_case "every route agrees with Nrc.Eval" `Quick test_scalar_if ] );
      ( "total entry point",
        [ QCheck_alcotest.to_alcotest prop_run_total ] );
      ( "config",
        List.map
          (fun (what, c) ->
            Alcotest.test_case ("rejects " ^ what) `Quick
              (test_validate_rejects (what, c)))
          invalid_configs
        @ [
            Alcotest.test_case "accepts valid configurations" `Quick
              test_validate_accepts;
            Alcotest.test_case "domains past the runtime limit fail typed"
              `Quick test_domain_limit;
            Alcotest.test_case "SparkSQL reports the cogroup fusion off"
              `Quick test_effective_cogroup;
            Alcotest.test_case "env hooks parse" `Quick test_env_hooks_parse;
            Alcotest.test_case "env hooks reject malformed values" `Quick
              test_env_hooks_reject;
          ] );
    ]
