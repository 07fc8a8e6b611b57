(** Integration tests for the biomedical E2E pipeline: typechecking, shape
    checks on the generator, per-step and end-to-end agreement of all
    strategies with the reference interpreter, and the structural property
    the paper highlights — the shredded route never flattens Occurrences. *)

module V = Nrc.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tiny =
  {
    Biomed.Generator.small_scale with
    samples = 5;
    mutations_per_sample = 6;
    candidates_per_mutation = 3;
    genes = 40;
    edges_per_gene = 4;
  }

let db = Biomed.Generator.generate tiny
let inputs = Biomed.Generator.inputs db

let cluster = { Exec.Config.unbounded with partitions = 5; workers = 3 }
let api_config = { Trance.Api.default_config with cluster }

let test_generator () =
  check_int "samples" 5
    (List.length (V.bag_items db.Biomed.Generator.occurrences));
  check_int "genes in network" 40
    (List.length (V.bag_items db.Biomed.Generator.network));
  check_int "copy number rows" (5 * 40)
    (List.length (V.bag_items db.Biomed.Generator.copynumber));
  check_int "impact table" 4
    (List.length (V.bag_items db.Biomed.Generator.soimpact))

let test_typecheck () =
  let env = Nrc.Program.typecheck Biomed.Pipeline.program in
  (* Step1 output is one-level nested per sample *)
  match Nrc.Typecheck.Env.find "Step1" env with
  | Nrc.Types.TBag (Nrc.Types.TTuple [ ("sid", _); ("genes", Nrc.Types.TBag _) ])
    ->
    ()
  | t -> Alcotest.failf "unexpected Step1 type %a" Nrc.Types.pp t

let reference = lazy (Nrc.Program.eval Biomed.Pipeline.program inputs)

let agree_strategy strategy () =
  let expected = Nrc.Eval.Env.find "Step5" (Lazy.force reference) in
  let r =
    Trance.Api.run ~config:api_config ~strategy Biomed.Pipeline.program inputs
  in
  (match r.Trance.Api.failure with
  | Some f -> Alcotest.failf "failed: %s" (Trance.Api.failure_message f)
  | None -> ());
  Fixtures.check_bag_equal "E2E result" expected (Option.get r.Trance.Api.value)

let test_per_step_prefixes () =
  (* each prefix program agrees under the shredded route *)
  List.iter
    (fun (name, prog) ->
      let expected = Nrc.Program.eval_result prog inputs in
      let r =
        Trance.Api.run ~config:api_config
          ~strategy:(Trance.Api.Shredded { unshred = true })
          prog inputs
      in
      (match r.Trance.Api.failure with
      | Some f -> Alcotest.failf "%s failed: %s" name (Trance.Api.failure_message f)
      | None -> ());
      Fixtures.check_bag_equal name expected (Option.get r.Trance.Api.value))
    Biomed.Pipeline.prefix_programs

let test_shredded_structure () =
  (* the shredded compilation of Step1 must perform localized aggregation:
     some materialized assignment aggregates with "label" in its keys, and
     no materialized assignment rebuilds the nested Occurrences value *)
  let sp = Trance.Shred_pipeline.shred_program Biomed.Pipeline.program in
  let rec has_label_sum (e : Nrc.Expr.t) =
    match e with
    | Nrc.Expr.SumBy { keys = "label" :: _; _ } -> true
    | _ ->
      let found = ref false in
      ignore
        (Nrc.Expr.map_children
           (fun sub ->
             if has_label_sum sub then found := true;
             sub)
           e);
      !found
  in
  check "localized aggregation somewhere in E2E" true
    (List.exists
       (fun { Nrc.Program.body; _ } -> has_label_sum body)
       sp.Trance.Shred_pipeline.mat.Nrc.Program.assignments)

let test_step2_explosion_shape () =
  (* the flattened route needs more per-worker memory than the shredded one
     on the full pipeline: the Step2 join fanout over nested values is the
     effect the paper measures as 16 billion tuples / 2.1 TB shuffled *)
  let db = Biomed.Generator.generate Biomed.Generator.small_scale in
  let inputs = Biomed.Generator.inputs db in
  let no_broadcast =
    { api_config with cluster = { cluster with broadcast_limit = 0 } }
  in
  let std =
    Trance.Api.run ~config:no_broadcast ~strategy:Trance.Api.Standard
      Biomed.Pipeline.program inputs
  in
  let shred =
    Trance.Api.run ~config:no_broadcast
      ~strategy:(Trance.Api.Shredded { unshred = false })
      Biomed.Pipeline.program inputs
  in
  check "both succeed (unbounded memory)" true
    (std.Trance.Api.failure = None && shred.Trance.Api.failure = None);
  check "standard needs more worker memory on the E2E pipeline" true
    ((Exec.Stats.snapshot shred.Trance.Api.stats).Exec.Stats.peak_worker_bytes
    < (Exec.Stats.snapshot std.Trance.Api.stats).Exec.Stats.peak_worker_bytes)

let () =
  Alcotest.run "biomed"
    [
      ( "generator",
        [ Alcotest.test_case "shapes" `Quick test_generator ] );
      ( "pipeline",
        [
          Alcotest.test_case "typechecks" `Quick test_typecheck;
          Alcotest.test_case "standard agrees" `Quick
            (agree_strategy Trance.Api.Standard);
          Alcotest.test_case "shredded agrees" `Quick
            (agree_strategy (Trance.Api.Shredded { unshred = false }));
          Alcotest.test_case "sparksql proxy agrees" `Quick
            (agree_strategy Trance.Api.SparkSQL_proxy);
          Alcotest.test_case "per-step prefixes (shredded)" `Quick
            test_per_step_prefixes;
        ] );
      ( "structure",
        [
          Alcotest.test_case "localized aggregation" `Quick
            test_shredded_structure;
          Alcotest.test_case "Step2 explosion shape" `Quick
            test_step2_explosion_shape;
        ] );
    ]
