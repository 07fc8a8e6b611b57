(** Cross-strategy property tests on randomly generated queries and data
    (see {!Qgen}): the reference interpreter, the local plan interpreter,
    the distributed executor (standard, cogroup off, skew-aware), and the
    shredded pipeline (with and without domain elimination) must all agree
    on every generated case. This is the broadest validation layer of the
    repository. *)

module V = Nrc.Value
module E = Nrc.Expr

let count = Fixtures.qcheck_count

let cluster = { Exec.Config.unbounded with partitions = 6; workers = 3 }
let api_config = { Trance.Api.default_config with cluster }

let reference q inputs = Nrc.Eval.eval (Nrc.Eval.env_of_list inputs) q

let prop_plan_agrees =
  QCheck.Test.make ~name:"random query: plan = reference" ~count:(count 250)
    Qgen.arbitrary_case (fun (q, inputs) ->
      let expected = reference q inputs in
      let plan = Trance.Unnest.translate ~tenv:Qgen.inputs_ty q in
      let actual =
        Plan.Local_eval.eval_to_bag (Plan.Local_eval.env_of_list inputs) plan
      in
      V.approx_bag_equal expected actual)

let prop_optimized_plan_agrees =
  QCheck.Test.make ~name:"random query: optimized plan = reference"
    ~count:(count 250) Qgen.arbitrary_case (fun (q, inputs) ->
      let expected = reference q inputs in
      let plan =
        Plan.Optimize.optimize ~config:Plan.Optimize.default
          (Trance.Unnest.translate ~tenv:Qgen.inputs_ty q)
      in
      let actual =
        Plan.Local_eval.eval_to_bag (Plan.Local_eval.env_of_list inputs) plan
      in
      V.approx_bag_equal expected actual)

let prop_unique_hint_agrees =
  QCheck.Test.make
    ~name:"random query: optimized plan with unique-key hint = reference"
    ~count:(count 250) Qgen.arbitrary_case (fun (q, inputs) ->
      (* deduplicate S on [a] so it is genuinely unique, then optimize with
         the matching hint: the aggregation-pushdown path (licensed by the
         declared key) must stay semantics-preserving *)
      let inputs = Qgen.dedup_s inputs in
      let expected = reference q inputs in
      let config =
        { Plan.Optimize.default with unique_keys = [ ("S", [ "a" ]) ] }
      in
      let plan =
        Plan.Optimize.optimize ~config
          (Trance.Unnest.translate ~tenv:Qgen.inputs_ty q)
      in
      let actual =
        Plan.Local_eval.eval_to_bag (Plan.Local_eval.env_of_list inputs) plan
      in
      V.approx_bag_equal expected actual)

(* the hint is not dead weight: on a SumBy over a join against S's declared
   key, the hinted optimizer must produce a structurally different
   (pushed-down) plan than the unhinted one *)
let test_hint_fires () =
  let q =
    E.ForUnion
      ( "n",
        E.Var "N",
        E.Singleton
          (E.Record
             [
               ("k", E.Proj (E.Var "n", "k"));
               ( "items",
                 E.SumBy
                   { keys = [ "a" ];
                     values = [ "t" ];
                     input =
                       E.ForUnion
                         ( "it",
                           E.Proj (E.Var "n", "items"),
                           E.ForUnion
                             ( "y",
                               E.Var "S",
                               E.If
                                 ( E.Cmp
                                     ( E.Eq,
                                       E.Proj (E.Var "it", "a"),
                                       E.Proj (E.Var "y", "a") ),
                                   E.Singleton
                                     (E.Record
                                        [
                                          ("a", E.Proj (E.Var "it", "a"));
                                          ( "t",
                                            E.Prim
                                              ( E.Mul,
                                                E.Proj (E.Var "it", "q"),
                                                E.Proj (E.Var "y", "w") ) );
                                        ]),
                                   None ) ) ) } );
             ]) )
  in
  let base = Trance.Unnest.translate ~tenv:Qgen.inputs_ty q in
  let hinted =
    Plan.Optimize.optimize
      ~config:{ Plan.Optimize.default with unique_keys = [ ("S", [ "a" ]) ] }
      base
  in
  let unhinted = Plan.Optimize.optimize ~config:Plan.Optimize.default base in
  Alcotest.(check bool)
    "unique-key hint rewrites the plan (aggregation pushdown fired)" true
    (hinted <> unhinted)

let run_strategy ?(config = api_config) strategy q inputs =
  let prog = Nrc.Program.of_expr ~inputs:Qgen.inputs_ty ~name:"Q" q in
  Trance.Api.run ~config ~strategy prog inputs

let prop_executor_agrees =
  QCheck.Test.make ~name:"random query: distributed standard = reference"
    ~count:(count 150) Qgen.arbitrary_case (fun (q, inputs) ->
      let expected = reference q inputs in
      let r = run_strategy Trance.Api.Standard q inputs in
      match r.Trance.Api.value with
      | Some v -> V.approx_bag_equal expected v
      | None -> false)

let prop_executor_no_cogroup_agrees =
  QCheck.Test.make ~name:"random query: cogroup off = reference"
    ~count:(count 100) Qgen.arbitrary_case (fun (q, inputs) ->
      let expected = reference q inputs in
      let config = { api_config with cogroup = false } in
      let r = run_strategy ~config Trance.Api.Standard q inputs in
      match r.Trance.Api.value with
      | Some v -> V.approx_bag_equal expected v
      | None -> false)

let prop_skew_aware_agrees =
  QCheck.Test.make ~name:"random query: skew-aware = reference"
    ~count:(count 100) Qgen.arbitrary_case (fun (q, inputs) ->
      let expected = reference q inputs in
      let config =
        { api_config with
          skew_aware = true;
          cluster = { cluster with broadcast_limit = 64 } }
      in
      let r = run_strategy ~config Trance.Api.Standard q inputs in
      match r.Trance.Api.value with
      | Some v -> V.approx_bag_equal expected v
      | None -> false)

let prop_shredded_agrees =
  QCheck.Test.make ~name:"random query: shredded pipeline = reference"
    ~count:(count 150) Qgen.arbitrary_case (fun (q, inputs) ->
      let expected = reference q inputs in
      let r = run_strategy (Trance.Api.Shredded { unshred = true }) q inputs in
      match r.Trance.Api.value with
      | Some v -> V.approx_bag_equal expected v
      | None -> false)

let prop_shredded_no_domelim_agrees =
  QCheck.Test.make
    ~name:"random query: shredded without domain elimination = reference"
    ~count:(count 100) Qgen.arbitrary_case (fun (q, inputs) ->
      let expected = reference q inputs in
      let prog = Nrc.Program.of_expr ~inputs:Qgen.inputs_ty ~name:"Q" q in
      let _, _, actual =
        Trance.Shred_pipeline.eval_shredded
          ~config:{ Trance.Materialize.domain_elimination = false }
          prog inputs
      in
      V.approx_bag_equal expected actual)

let prop_shuffle_conservation =
  QCheck.Test.make
    ~name:"random query: executor metrics are sane (bytes, rows >= 0)"
    ~count:(count 100) Qgen.arbitrary_case (fun (q, inputs) ->
      let r = run_strategy Trance.Api.Standard q inputs in
      let s = Exec.Stats.snapshot r.Trance.Api.stats in
      s.Exec.Stats.shuffled_bytes >= 0
      && s.Exec.Stats.peak_worker_bytes >= 0
      && s.Exec.Stats.sim_seconds >= 0.
      && s.Exec.Stats.rows_processed >= 0)

let () =
  Alcotest.run "random"
    [
      ( "cross-strategy",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_plan_agrees;
            prop_optimized_plan_agrees;
            prop_unique_hint_agrees;
            prop_executor_agrees;
            prop_executor_no_cogroup_agrees;
            prop_skew_aware_agrees;
            prop_shredded_agrees;
            prop_shredded_no_domelim_agrees;
            prop_shuffle_conservation;
          ] );
      ( "optimizer hints",
        [ Alcotest.test_case "unique-key hint fires" `Quick test_hint_fires ] );
    ]
