(** The domain pool and its determinism contract.

    Two layers. First, properties of {!Exec.Pool} itself: [map] agrees
    with [Array.mapi] at every domain count, including empty and
    singleton inputs, and the lowest-index exception is the one that
    propagates — with the pool still usable afterwards. Second, the
    differential campaign behind the [--domains] knob: for every corpus
    query, strategy and scenario (clean, fault storm, tight-memory
    spilling, checkpointed storm), a 4-domain run must be bit-identical to
    the sequential run — same value, same failure, same counters, same
    span tree — once the only legitimately non-deterministic quantity,
    wall-clock time, is stripped ({!Exec.Stats.strip_wall},
    {!Exec.Trace.without_wall}). *)

module V = Nrc.Value
module F = Exec.Faults
module Pool = Exec.Pool
module Trace = Exec.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let count = Fixtures.qcheck_count

(* ------------------------------------------------------------------ *)
(* Pool properties *)

let arbitrary_pool_case =
  QCheck.make
    ~print:(fun (l, d) -> Printf.sprintf "domains=%d n=%d" d (List.length l))
    QCheck.Gen.(pair (list_size (int_bound 50) small_int) (int_range 1 6))

let prop_map_matches_sequential =
  QCheck.Test.make ~name:"map: agrees with Array.mapi at any domain count"
    ~count:(count 200) arbitrary_pool_case (fun (l, domains) ->
      let arr = Array.of_list l in
      let f i x = (i * 1031) lxor (x * 7) in
      Pool.with_pool ~domains (fun pool -> Pool.map pool f arr)
      = Array.mapi f arr)

(* sequential semantics: the first (lowest-index) raising task is the one
   the caller observes, whatever order the domains actually ran in — and
   the pool survives to run the next job *)
let test_exception_lowest_index () =
  Pool.with_pool ~domains:4 (fun pool ->
      let arr = Array.init 20 Fun.id in
      (match
         Pool.map pool
           (fun i x -> if i mod 3 = 1 then failwith (string_of_int i) else x)
           arr
       with
      | _ -> Alcotest.fail "expected the task exception to propagate"
      | exception Failure m -> check_int "lowest raising index" 1 (int_of_string m));
      check "pool reusable after an exception" true
        (Pool.map pool (fun i x -> i + x) arr = Array.mapi (fun i x -> i + x) arr))

let test_create_shutdown () =
  let p = Pool.create ~domains:3 in
  check_int "size" 3 (Pool.size p);
  check "runs a job" true
    (Pool.map p (fun i x -> i * x) (Array.init 10 Fun.id)
    = Array.init 10 (fun i -> i * i));
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

let test_empty_and_singleton () =
  Pool.with_pool ~domains:4 (fun pool ->
      check "empty input, empty output" true
        (Pool.map pool (fun i x -> i + x) [||] = [||]);
      check "singleton" true (Pool.map pool (fun i x -> i + x) [| 9 |] = [| 9 |]))

(* ------------------------------------------------------------------ *)
(* The differential campaign: corpus x strategy x scenario, domains 1 = 4 *)

let cluster = { Exec.Config.unbounded with partitions = 7; workers = 3 }
let api_config = { Trance.Api.default_config with cluster; trace = true }

let with_domains (config : Trance.Api.config) domains =
  { config with
    Trance.Api.cluster =
      { config.Trance.Api.cluster with Exec.Config.domains } }

let run_q ~config strategy q =
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  Trance.Api.run ~config ~strategy prog Fixtures.inputs_val

let strategies =
  [
    ("Standard", Trance.Api.Standard, api_config);
    ("Shred+Unshred", Trance.Api.Shredded { unshred = true }, api_config);
    ( "Standard+skew",
      Trance.Api.Standard,
      { api_config with
        Trance.Api.skew_aware = true;
        cluster = { cluster with broadcast_limit = 64 } } );
  ]

let storm =
  [
    { (F.default_spec F.Worker_crash) with F.stage = 1 };
    { (F.default_spec F.Task_failure) with F.stage = 2; fails = 2 };
    { (F.default_spec F.Fetch_failure) with F.stage = 3; fails = 2 };
  ]

(* each scenario maps the strategy's base config to the config under
   test; the memory ladder calibrates against the clean sequential peak *)
let scenarios =
  [
    ("clean", fun config _strategy _q -> config);
    ( "fault storm",
      fun config _strategy _q -> { config with Trance.Api.faults = storm } );
    ( "memory ladder",
      fun config strategy q ->
        let clean = run_q ~config:(with_domains config 1) strategy q in
        let peak = (Exec.Stats.snapshot clean.Trance.Api.stats).Exec.Stats.peak_worker_bytes in
        { config with
          Trance.Api.route_fallback = false;
          cluster =
            { config.Trance.Api.cluster with
              worker_mem = max 1 (peak / 4);
              spill = Exec.Config.On } } );
    ( "checkpoint storm",
      fun config _strategy _q ->
        { config with
          Trance.Api.faults = F.storm ~first_stage:1 ~span:4 3;
          cluster =
            { config.Trance.Api.cluster with
              Exec.Config.checkpoint = Exec.Config.Every 2 } } );
  ]

let stripped_spans (r : Trance.Api.run) =
  Exec.Json.to_string
    (List (List.map (fun sp -> Trace.json (Trace.without_wall sp)) r.Trance.Api.trace))

let assert_bit_identical what (r1 : Trance.Api.run) (rn : Trance.Api.run) =
  check (what ^ ": same value") true (r1.Trance.Api.value = rn.Trance.Api.value);
  check (what ^ ": same failure") true
    (r1.Trance.Api.failure = rn.Trance.Api.failure);
  check (what ^ ": same counters once wall is stripped") true
    (Exec.Stats.strip_wall (Exec.Stats.snapshot r1.Trance.Api.stats)
    = Exec.Stats.strip_wall (Exec.Stats.snapshot rn.Trance.Api.stats));
  check (what ^ ": same span tree once wall is stripped") true
    (stripped_spans r1 = stripped_spans rn);
  let step_sims (r : Trance.Api.run) =
    List.map
      (fun (s : Trance.Api.step_report) -> (s.step, s.stats.Exec.Stats.sim_seconds))
      r.Trance.Api.steps
  in
  check (what ^ ": same per-step sim seconds") true (step_sims r1 = step_sims rn)

let campaign_tests =
  List.concat_map
    (fun (name, q) ->
      List.concat_map
        (fun (sname, strategy, config) ->
          List.map
            (fun (scname, tweak) ->
              let what = Printf.sprintf "%s [%s] %s" name sname scname in
              Alcotest.test_case what `Quick (fun () ->
                  let config = tweak config strategy q in
                  let r1 = run_q ~config:(with_domains config 1) strategy q in
                  let r4 = run_q ~config:(with_domains config 4) strategy q in
                  assert_bit_identical what r1 r4))
            scenarios)
        strategies)
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* Big partitions: a TPC-H Shred+Unshred cell on 2 partitions, so kernel
   outputs, shuffle destinations and result conversions hold hundreds of
   rows each, where the per-destination merge tasks and the pooled
   conversion to datasets run. Every dataset the run produces (each
   assignment's and the unshredded result) must have the same partitions,
   element order included, and the same stripped counters at 1 and 4
   domains. *)

let test_big_partitions () =
  let family = Tpch.Queries.Nested_to_nested and level = 2 in
  let prog = Tpch.Queries.program ~family ~level () in
  let inputs =
    Tpch.Queries.input_values ~family ~level
      (Tpch.Generator.generate { Tpch.Generator.default_scale with customers = 60 })
  in
  let config =
    { Trance.Api.default_config with
      cluster = { Exec.Config.unbounded with partitions = 2; workers = 2 } }
  in
  let run domains =
    let cluster = { config.Trance.Api.cluster with Exec.Config.domains } in
    Exec.Executor.reset_ids ();
    Trance.Shred_type.reset_sites ();
    let c = Trance.Api.compile_shredded ~config prog in
    let stats = Exec.Stats.create () and checkpoint = Exec.Checkpoint.make cluster in
    Pool.with_pool ~domains (fun pool ->
        let env =
          Exec.Executor.env_of_list
            (Trance.Shred_value.place pool ~partitions:cluster.partitions prog.Nrc.Program.inputs inputs)
        in
        let run_plan plan =
          Exec.Executor.run_plan ~checkpoint ~pool ~config:cluster ~stats env plan
        in
        let outs =
          List.map
            (fun (name, plan) ->
              let out = run_plan plan in
              Hashtbl.replace env name out;
              out)
            c.Trance.Api.plans
        in
        let result = run_plan (Option.get c.Trance.Api.unshred_plan) in
        (outs @ [ result ], Exec.Stats.strip_wall (Exec.Stats.snapshot stats)))
  in
  let outs1, stats1 = run 1 and outs4, stats4 = run 4 in
  let widest =
    List.fold_left
      (fun acc (d : Exec.Dataset.t) -> Array.fold_left (fun acc p -> max acc (Array.length p)) acc d.parts)
      0 outs1
  in
  check "some partition holds over 256 rows" true (widest > 256);
  check "answer = Nrc.Eval" true
    (V.approx_bag_equal
       (Exec.Dataset.to_bag (List.nth outs1 (List.length outs1 - 1)))
       (Nrc.Program.eval_result prog inputs));
  check "same datasets, partition by partition" true (outs1 = outs4);
  check "same counters once wall is stripped" true (stats1 = stats4)

(* ------------------------------------------------------------------ *)
(* One schema per rset. Rows carry no names: an rset holds one names
   array for all its partitions, which each kernel returns beside the rows
   it builds. Each plan shuffles rows that tasks on two domains built from
   four source partitions, then runs the kernel at its root per
   partition: every row of every partition must be as wide as the rset's
   schema, and the schema must be the one the local interpreter derives
   for the same plan. *)

let test_one_schema () =
  let module Op = Plan.Op in
  let module S = Plan.Sexpr in
  let col c = S.Col [ c ] and path f = S.Col [ "x"; f ] in
  let items =
    List.init 200 (fun i ->
        V.Tuple
          [ ("k", V.Int (i mod 13)); ("a", V.Int i);
            ("b", V.Bag (List.init (i mod 3) (fun j -> V.Tuple [ ("c", V.Int j) ]))) ])
  in
  let config =
    { Exec.Config.unbounded with partitions = 4; workers = 2; broadcast_limit = 0; domains = 2 }
  in
  let env = Exec.Executor.env_of_list [ ("R", Exec.Dataset.of_bag ~partitions:4 (V.Bag items)) ] in
  let scan = Op.Scan { input = "R"; binder = "x" } in
  (* a shuffle by [x.k]: the rows of each destination come from every
     source partition *)
  let shuffled = Op.BagToDict { input = scan; label = path "k" } in
  let indexed = Op.AddIndex { input = shuffled; col = "id" } in
  let join right = Op.Join { left = shuffled; right; lkey = [ path "k" ]; rkey = [ S.Col [ "y"; "k" ] ]; kind = Op.LeftOuter } in
  let y = Op.Scan { input = "R"; binder = "y" } in
  let g = [ ("id", col "id"); ("k", path "k") ] in
  let plans =
    [ ("project", Op.Project ([ ("k", path "k"); ("x", col "x") ], shuffled));
      ("add_index", indexed);
      ("join", join y);
      ("product", Op.Product (shuffled, Op.Select (S.Cmp (Nrc.Expr.Eq, S.Col [ "y"; "a" ], S.Const (V.Int 1)), y)));
      ("unnest", Op.Unnest { input = shuffled; path = [ "x"; "b" ]; binder = "z"; outer = true; drop = true });
      ("unnest, column dropped",
        Op.Unnest { input = Op.Project ([ ("bs", path "b"); ("k", path "k") ], shuffled);
                    path = [ "bs" ]; binder = "z"; outer = false; drop = true });
      ("nest_bag", Op.NestBag { input = indexed; keys = g; agg_keys = []; item = path "a";
                                presence = S.Const (V.Bool true); out = "as" });
      ("nest_sum", Op.NestSum { input = indexed; keys = g; agg_keys = [ ("a", path "a") ];
                                aggs = [ ("n", path "a") ]; presence = S.Const (V.Bool true) });
      ("cogroup", Op.Cogroup { left = indexed; right = y; lkey = [ path "k" ]; rkey = [ S.Col [ "y"; "k" ] ];
                               kind = Op.LeftOuter; keys = g; item = S.Col [ "y"; "a" ];
                               presence = S.Const (V.Bool true); out = "as" });
      ("union", Op.UnionAll (Op.Project ([ ("k", path "k") ], scan), Op.Project ([ ("k", path "a") ], shuffled)));
      ("dedup", Op.Project ([ ("k", path "k") ], Op.Dedup shuffled)) ]
  in
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (name, plan) ->
          let r =
            Exec.Executor.run_rows ~checkpoint:(Exec.Checkpoint.make config) ~pool ~config
              ~stats:(Exec.Stats.create ()) env plan
          in
          let rows = Array.concat (Array.to_list r.Exec.Dataset.parts) in
          check (name ^ ": rows out") true (Array.length rows > 0);
          let local_names, _ =
            Plan.Local_eval.eval (Plan.Local_eval.env_of_list [ ("R", V.Bag items) ]) plan
          in
          check (name ^ ": the local interpreter's schema") true
            (r.Exec.Dataset.names = local_names);
          check (name ^ ": every row as wide as the schema") true
            (Array.for_all
               (fun (row : Plan.Row.t) -> Array.length row = Array.length local_names)
               rows))
        plans)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pool"
    [
      ( "pool properties",
        [
          Alcotest.test_case "lowest-index exception propagates" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "create / run / shutdown (idempotent)" `Quick
            test_create_shutdown;
          Alcotest.test_case "empty and singleton inputs" `Quick
            test_empty_and_singleton;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_map_matches_sequential ] );
      ( "sequential = parallel campaign",
        campaign_tests
        @ [ Alcotest.test_case "TPC-H Shred+Unshred on big partitions" `Quick
              test_big_partitions;
            Alcotest.test_case "shuffled rows fit their rset's one schema" `Quick
              test_one_schema ] );
    ]
