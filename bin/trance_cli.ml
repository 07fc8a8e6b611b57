(** Command-line interface to the framework.

    {v
      trance explain --family nested-to-nested --level 2 --route shredded
      trance run     --family nested-to-flat --level 3 --strategy shred --skew 2
      trance biomed  --strategy standard --small
    v} *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let family_arg =
  let parse = function
    | "flat-to-nested" | "f2n" -> Ok Tpch.Queries.Flat_to_nested
    | "nested-to-nested" | "n2n" -> Ok Tpch.Queries.Nested_to_nested
    | "nested-to-flat" | "n2f" -> Ok Tpch.Queries.Nested_to_flat
    | s -> Error (`Msg ("unknown family " ^ s))
  in
  let print ppf f = Fmt.string ppf (Tpch.Queries.family_name f) in
  Arg.(
    value
    & opt (conv (parse, print)) Tpch.Queries.Nested_to_nested
    & info [ "family"; "f" ] ~docv:"FAMILY"
        ~doc:
          "Query family: flat-to-nested (f2n), nested-to-nested (n2n), or \
           nested-to-flat (n2f).")

let level_arg =
  Arg.(
    value & opt int 2
    & info [ "level"; "l" ] ~docv:"LEVEL" ~doc:"Nesting level (0-4).")

let wide_arg =
  Arg.(
    value & flag
    & info [ "wide" ] ~doc:"Use the wide query variant (all attributes kept).")

let skew_arg =
  Arg.(
    value & opt int 0
    & info [ "skew" ] ~docv:"S" ~doc:"Zipf skew factor of the generated data (0-4).")

let scale_arg =
  Arg.(
    value & opt int 150
    & info [ "customers" ] ~docv:"N" ~doc:"Number of customers to generate.")

let strategy_arg =
  let parse = function
    | "standard" | "std" -> Ok Trance.Api.Standard
    | "shred" -> Ok (Trance.Api.Shredded { unshred = false })
    | "shred-unshred" | "unshred" -> Ok (Trance.Api.Shredded { unshred = true })
    | "sparksql" -> Ok Trance.Api.SparkSQL_proxy
    | s -> Error (`Msg ("unknown strategy " ^ s))
  in
  let print ppf s = Fmt.string ppf (Trance.Api.strategy_name s) in
  Arg.(
    value
    & opt (conv (parse, print)) (Trance.Api.Shredded { unshred = true })
    & info [ "strategy"; "s" ] ~docv:"STRATEGY"
        ~doc:"Evaluation strategy: standard, shred, shred-unshred, sparksql.")

let skew_aware_arg =
  Arg.(
    value & flag
    & info [ "skew-aware" ] ~doc:"Enable the skew-resilient operators (Section 5).")

let mem_arg =
  Arg.(
    value & opt float 64.
    & info [ "mem" ] ~docv:"MB" ~doc:"Per-worker memory budget in MB.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record and print the per-operator execution span tree (one tree \
           per assignment), plus a totals line checked against the flat \
           statistics.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the full run report (totals, per-step stats slices, span \
           trees) as JSON to FILE. Implies tracing.")

let inject_arg =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Exec.Faults.schedule_of_string s)
  in
  let print ppf sch = Fmt.string ppf (Exec.Faults.schedule_to_string sch) in
  Arg.(
    value
    & opt (conv (parse, print)) []
    & info [ "inject" ] ~docv:"SCHEDULE"
        ~doc:
          "Inject a deterministic fault schedule into the run and recover \
           from it Spark-style. A schedule is one or more '+'-separated \
           faults, e.g. crash:stage=2 or \
           'crash:stage=2+task:stage=4,fails=2' (a fault storm). Fault \
           syntax: crash:stage=2, task:stage=1,fails=2, fetch:stage=3, \
           straggler:stage=1,mult=8, memsqueeze:stage=0,factor=0.25. \
           Recovery cost (retries, speculative tasks, recomputed bytes, \
           recovery seconds) shows in the stats and the trace; combine with \
           --checkpoint to bound it.")

let checkpoint_arg =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Exec.Config.checkpoint_of_string s)
  in
  let print ppf c = Fmt.string ppf (Exec.Config.checkpoint_name c) in
  Arg.(
    value
    & opt (conv (parse, print)) Exec.Config.default.Exec.Config.checkpoint
    & info [ "checkpoint" ] ~docv:"POLICY"
        ~doc:
          "Materialize stage outputs to simulated replicated stable storage, \
           truncating recovery lineage: off (default), every=K (every K \
           compute stages), or auto (checkpoint where expected recompute \
           under the configured fault rate exceeds the write cost). The \
           write cost is charged to the stage; checkpoints and truncated \
           lineage show in the stats.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-run deadline in simulated seconds. A run that exceeds it — \
           typically while recovering from an injected fault storm — \
           finishes as a typed failure naming the deadline instead of \
           recomputing unboundedly.")

let spill_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (Exec.Config.spill_of_string s) in
  let print ppf sp = Fmt.string ppf (Exec.Config.spill_name sp) in
  Arg.(
    value
    & opt (conv (parse, print)) Exec.Config.default.Exec.Config.spill
    & info [ "spill" ] ~docv:"on|off"
        ~doc:
          "Let over-budget operators spill their build side to simulated \
           disk (grace-hash partitioning, charged as spilled bytes and disk \
           time) instead of failing. With off the run reproduces the paper's \
           FAIL outcomes.")

let no_fallback_arg =
  Arg.(
    value & flag
    & info [ "no-fallback" ]
        ~doc:
          "Disable the adaptive route fallback: a standard-route run that \
           exhausts worker memory fails instead of re-planning down the \
           shredded route.")

let domains_arg =
  Arg.(
    value
    & opt int Exec.Config.default.Exec.Config.domains
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run partition tasks on N OCaml domains (default honours \
           TRANCE_DOMAINS, else 1 = sequential). A pure speed knob: any N \
           produces bit-identical results, stats, traces, fault victims and \
           checkpoint bytes — only wall_seconds changes.")

let api_config ~mem ~skew_aware ?(spill = Exec.Config.default.Exec.Config.spill)
    ?(no_fallback = false) ?(trace = false) ?(faults = [])
    ?(checkpoint = Exec.Config.default.Exec.Config.checkpoint) ?deadline
    ?(domains = Exec.Config.default.Exec.Config.domains) () =
  { Trance.Api.default_config with
    skew_aware;
    trace;
    faults;
    route_fallback = not no_fallback;
    cluster =
      { Exec.Config.default with
        worker_mem = int_of_float (mem *. 1048576.);
        spill;
        checkpoint;
        deadline;
        domains };
    optimizer =
      { Plan.Optimize.default with unique_keys = [ ("Part", [ "pkey" ]) ] } }

let print_trace (r : Trance.Api.run) =
  List.iter
    (fun sp -> Fmt.pr "%a" Exec.Trace.pp_tree sp)
    r.Trance.Api.trace;
  let t = (Exec.Trace.agg r.Trance.Api.trace).Exec.Trace.counters in
  let mb b = float_of_int b /. 1048576. in
  let agree =
    Exec.Trace.agrees r.Trance.Api.trace (Exec.Stats.snapshot r.Trance.Api.stats)
  in
  Fmt.pr
    "trace totals: shuffle=%.2fMB bcast=%.2fMB peak=%.2fMB spilled=%.2fMB \
     (flat stats agree: %s)@."
    (mb t.shuffled_bytes) (mb t.broadcast_bytes) (mb t.peak_worker_bytes)
    (mb t.spilled_bytes)
    (if agree then "yes" else "NO")

let write_json path (r : Trance.Api.run) =
  match open_out path with
  | exception Sys_error msg ->
      Fmt.epr "cannot write run report: %s@." msg;
      exit 1
  | oc ->
      output_string oc (Trance.Api.run_json r);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "wrote run report to %s@." path

let make_db ~customers ~skew =
  Tpch.Generator.generate
    { Tpch.Generator.default_scale with customers; skew; parts = 300 }

(* ------------------------------------------------------------------ *)
(* explain: show the query, the standard plan, and the shredded program *)

let spark_arg =
  Arg.(
    value & flag
    & info [ "spark" ]
        ~doc:"Also emit the Spark/Scala code generated for each plan.")

let explain family level wide spark =
  let prog = Tpch.Queries.program ~wide ~family ~level () in
  Fmt.pr "== NRC ==@.%a@." Nrc.Program.pp prog;
  let plans = Trance.Api.compile_standard prog in
  List.iter
    (fun (name, plan) -> Fmt.pr "== standard plan for %s ==@.%a@.@." name Plan.Op.pp plan)
    plans;
  if spark then
    Fmt.pr "== generated Spark code (standard route) ==@.%s@."
      (Trance.Spark_codegen.assignments_to_scala plans);
  let sc = Trance.Api.compile_shredded prog in
  Fmt.pr "== materialized shredded program ==@.%a@." Nrc.Program.pp
    sc.Trance.Api.pipeline.Trance.Shred_pipeline.mat;
  if spark then
    Fmt.pr "== generated Spark code (shredded route) ==@.%s@."
      (Trance.Spark_codegen.assignments_to_scala sc.Trance.Api.plans);
  (match sc.Trance.Api.unshred_plan with
  | Some p -> Fmt.pr "== unshredding plan ==@.%a@." Plan.Op.pp p
  | None -> Fmt.pr "(flat output: no unshredding needed)@.");
  0

let explain_cmd =
  Cmd.v
    (Cmd.info "explain" ~doc:"Show compilation artifacts for a TPC-H query cell.")
    Term.(const explain $ family_arg $ level_arg $ wide_arg $ spark_arg)

(* ------------------------------------------------------------------ *)
(* run: execute one cell on the simulator *)

let print_outcome (r : Trance.Api.run) =
  let s = Exec.Stats.snapshot r.Trance.Api.stats in
  if s.checkpoints_written > 0 then
    Fmt.pr
      "wrote %d checkpoints (%.1fKB), truncating %.1fKB of recovery lineage@."
      s.checkpoints_written
      (float_of_int s.checkpoint_bytes /. 1024.)
      (float_of_int s.lineage_truncated /. 1024.);
  match Trance.Api.outcome r with
  | Trance.Api.Degraded ->
    if s.task_retries > 0 || s.speculative_tasks > 0 || s.recomputed_bytes > 0
    then
      Fmt.pr
        "recovered from injected fault: %d retries, %d retried tasks, %d \
         speculative, %.1fKB recomputed, %.4fs recovery time@."
        s.task_retries s.retried_tasks s.speculative_tasks
        (float_of_int s.recomputed_bytes /. 1024.)
        s.recovery_seconds;
    Option.iter
      (fun (d : Trance.Api.degradation) ->
        if d.Trance.Api.fell_back then
          Fmt.pr "standard route exhausted memory (%s); fell back to %s@."
            (match d.Trance.Api.first_failure with
            | Some f -> Trance.Api.failure_message f
            | None -> "out of memory")
            d.Trance.Api.answered_by;
        if d.Trance.Api.spilled_bytes > 0 then
          Fmt.pr "spilled %.1fKB across %d build partitions (%d rounds)@."
            (float_of_int d.Trance.Api.spilled_bytes /. 1024.)
            d.Trance.Api.spill_partitions d.Trance.Api.spill_rounds)
      r.Trance.Api.degradation
  | Trance.Api.Completed | Trance.Api.Failed -> ()

let run_cell family level wide skew customers strategy skew_aware mem spill
    no_fallback trace json inject checkpoint deadline domains =
  let db = make_db ~customers ~skew in
  let prog = Tpch.Queries.program ~wide ~family ~level () in
  let inputs = Tpch.Queries.input_values ~wide ~family ~level db in
  let config =
    api_config ~mem ~skew_aware ~spill ~no_fallback
      ~trace:(trace || json <> None) ~faults:inject ~checkpoint ?deadline
      ~domains ()
  in
  let r = Trance.Api.run ~config ~strategy prog inputs in
  Fmt.pr "%a@." Trance.Api.pp_run r;
  print_outcome r;
  if trace then print_trace r;
  Option.iter (fun path -> write_json path r) json;
  (match r.Trance.Api.value, strategy with
  | Some v, Trance.Api.Shredded { unshred = false } ->
    Fmt.pr
      "output left in shredded form: %d top-level tuples (run with -s \
       shred-unshred to reassemble the nested value)@."
      (List.length (Nrc.Value.bag_items v))
  | Some v, _ ->
    let reference = Nrc.Program.eval_result prog inputs in
    if Nrc.Value.approx_bag_equal v reference then
      Fmt.pr "result verified against the reference interpreter (%d rows)@."
        (List.length (Nrc.Value.bag_items v))
    else Fmt.pr "WARNING: result differs from the reference interpreter!@."
  | None, _ -> ());
  match r.Trance.Api.failure with Some _ -> 1 | None -> 0

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a TPC-H query cell on the cluster simulator.")
    Term.(
      const run_cell $ family_arg $ level_arg $ wide_arg $ skew_arg $ scale_arg
      $ strategy_arg $ skew_aware_arg $ mem_arg $ spill_arg $ no_fallback_arg
      $ trace_arg $ json_arg $ inject_arg $ checkpoint_arg $ deadline_arg
      $ domains_arg)

(* ------------------------------------------------------------------ *)
(* biomed: the E2E pipeline *)

let small_arg =
  Arg.(value & flag & info [ "small" ] ~doc:"Use the small dataset variant.")

let run_biomed strategy skew_aware mem spill no_fallback small trace json
    inject checkpoint deadline domains =
  let scale =
    if small then Biomed.Generator.small_scale else Biomed.Generator.full_scale
  in
  let db = Biomed.Generator.generate scale in
  let inputs = Biomed.Generator.inputs db in
  let config =
    api_config ~mem ~skew_aware ~spill ~no_fallback
      ~trace:(trace || json <> None) ~faults:inject ~checkpoint ?deadline
      ~domains ()
  in
  let r = Trance.Api.run ~config ~strategy Biomed.Pipeline.program inputs in
  Fmt.pr "%a@." Trance.Api.pp_run r;
  print_outcome r;
  List.iter
    (fun (s : Trance.Api.step_report) ->
      Fmt.pr "  %-8s %.4f sim s [%a]@." s.Trance.Api.step
        s.Trance.Api.sim_seconds Exec.Stats.pp_snapshot s.Trance.Api.stats)
    r.Trance.Api.steps;
  if trace then print_trace r;
  Option.iter (fun path -> write_json path r) json;
  match r.Trance.Api.failure with Some _ -> 1 | None -> 0

let biomed_cmd =
  Cmd.v
    (Cmd.info "biomed" ~doc:"Run the biomedical E2E pipeline (Figure 9).")
    Term.(
      const run_biomed $ strategy_arg $ skew_aware_arg $ mem_arg $ spill_arg
      $ no_fallback_arg $ small_arg $ trace_arg $ json_arg $ inject_arg
      $ checkpoint_arg $ deadline_arg $ domains_arg)

(* ------------------------------------------------------------------ *)
(* query: parse and run a textual NRC query against generated TPC-H data *)

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY"
        ~doc:
          "NRC query text over the TPC-H tables (Lineitem, Orders, Customer, \
           Nation, Region, Part) and/or the nested input COP. Example: 'for \
           p in Part union if p.pprice > 50.0 then sng(pname := p.pname)'.")

let nested_level_arg =
  Arg.(
    value & opt int 2
    & info [ "cop-level" ] ~docv:"LEVEL"
        ~doc:"Nesting level of the COP input made available to the query.")

let limit_arg =
  Arg.(
    value & opt int 10
    & info [ "limit" ] ~docv:"N" ~doc:"Print at most N result rows.")

let run_query qtext level skew customers strategy skew_aware mem limit =
  let db = make_db ~customers ~skew in
  let inputs_ty =
    Tpch.Schema.flat_inputs_ty
    @ [ (Tpch.Queries.nested_name, Tpch.Queries.nested_input_ty ~level ()) ]
  in
  let inputs_val =
    Tpch.Generator.flat_inputs db
    @ [ (Tpch.Queries.nested_name, Tpch.Generator.nested_input ~level db) ]
  in
  match Nrc.Parser.program_of_string ~inputs:inputs_ty qtext with
  | exception Nrc.Parser.Parse_error { pos; message } ->
    Fmt.epr "parse error at offset %d: %s@." pos message;
    1
  | exception Nrc.Lexer.Lex_error { pos; message } ->
    Fmt.epr "lex error at offset %d: %s@." pos message;
    1
  | prog -> (
    match Nrc.Program.typecheck prog with
    | exception Nrc.Typecheck.Type_error m ->
      Fmt.epr "type error: %s@." m;
      1
    | _ ->
      let config = api_config ~mem ~skew_aware () in
      let r = Trance.Api.run ~config ~strategy prog inputs_val in
      Fmt.pr "%a@." Trance.Api.pp_run r;
      (match r.Trance.Api.value with
      | Some v ->
        let rows = Nrc.Value.bag_items v in
        Fmt.pr "%d rows; first %d:@." (List.length rows) limit;
        List.iteri
          (fun i row -> if i < limit then Fmt.pr "  %a@." Nrc.Value.pp row)
          rows
      | None -> ());
      (match r.Trance.Api.failure with Some _ -> 1 | None -> 0))

let query_cmd =
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Parse an NRC query from text and run it on the simulator against \
          generated TPC-H data.")
    Term.(
      const run_query $ query_arg $ nested_level_arg $ skew_arg $ scale_arg
      $ strategy_arg $ skew_aware_arg $ mem_arg $ limit_arg)

(* ------------------------------------------------------------------ *)
(* recommend: estimate both routes and pick one (cost model, Section 8) *)

let run_recommend family level wide skew customers =
  let db = make_db ~customers ~skew in
  let prog = Tpch.Queries.program ~wide ~family ~level () in
  let inputs = Tpch.Queries.input_values ~wide ~family ~level db in
  let r = Trance.Cost.recommend prog inputs in
  Fmt.pr "estimated cost: standard %.3g, shredded %.3g => use %s@."
    r.Trance.Cost.standard_cost r.Trance.Cost.shredded_cost
    (match r.Trance.Cost.pick with
    | `Standard -> "the standard route"
    | `Shredded -> "the shredded route");
  let cluster = Exec.Config.default in
  let plans = Trance.Api.compile_standard prog in
  let ck =
    Trance.Cost.recommend_checkpoint_interval cluster
      (Trance.Cost.stats_of_inputs inputs)
      plans
  in
  Fmt.pr
    "checkpoint interval (Young-Daly, fault rate %.3g/stage): every=%d \
     (avg stage %.1fKB, write %.4gs, expected recompute %.4gs/stage)@."
    cluster.Exec.Config.fault_rate ck.Trance.Cost.interval
    (ck.Trance.Cost.avg_stage_bytes /. 1024.)
    ck.Trance.Cost.write_seconds ck.Trance.Cost.expected_recompute_seconds;
  0

let recommend_cmd =
  Cmd.v
    (Cmd.info "recommend"
       ~doc:
         "Estimate the cost of both compilation routes for a TPC-H cell and \
          recommend one (the cost model of the paper's future-work section).")
    Term.(
      const run_recommend $ family_arg $ level_arg $ wide_arg $ skew_arg
      $ scale_arg)

(* ------------------------------------------------------------------ *)

let default =
  Term.(
    ret
      (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "trance"
      ~doc:
        "Scalable querying of nested data: shredded compilation of NRC \
         programs on a simulated cluster (reproduction of Smith et al., \
         PVLDB 14(3), 2020)."
  in
  exit (Cmd.eval' (Cmd.group ~default info [ explain_cmd; run_cmd; biomed_cmd; query_cmd; recommend_cmd ]))
