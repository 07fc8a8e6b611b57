(** Top-level TraNCE-style API: compile an NRC program down one of the two
    routes of Figure 2 and execute it on the cluster simulator.

    - {b Standard}: unnesting -> plan -> optimization -> distributed
      execution over nested top-level tuples (Section 3).
    - {b Shredded}: symbolic shredding -> materialization (domain
      elimination) -> per-assignment unnesting -> distributed execution over
      flat shredded datasets, optionally followed by unshredding
      (Section 4).

    Both routes accept skew-aware execution (Section 5) and report the
    executor's instrumentation — totals, typed per-step reports, and (when
    [config.trace] is on) per-operator span trees; every typed failure
    ({!Exec.Failure}) is reported as a failed run (the paper's FAIL bars),
    not an exception. *)

module E = Nrc.Expr
module T = Nrc.Types
module V = Nrc.Value
module S = Plan.Sexpr

type strategy =
  | Standard
  | Shredded of { unshred : bool }
  | SparkSQL_proxy
      (** the paper's strongest competitor, modelled as the standard route
          with the cogroup optimization disabled and no aggregation pushdown
          (SparkSQL keeps explode with the source relation and its optimizer
          does not push aggregates through it; Section 6) *)

let strategy_name = function
  | Standard -> "Standard"
  | Shredded { unshred = false } -> "Shred"
  | Shredded { unshred = true } -> "Shred+Unshred"
  | SparkSQL_proxy -> "SparkSQL"

type config = {
  cluster : Exec.Config.t;
  skew_aware : bool;
  cogroup : bool; (* fuse join+nest into cogroup (Section 3, Optimization) *)
  optimizer : Plan.Optimize.config;
  materializer : Materialize.config;
  collect : bool; (* gather the result value back to the driver *)
  trace : bool; (* record per-operator execution span trees *)
  faults : Exec.Faults.schedule; (* the fault storm this run will face *)
  route_fallback : bool;
      (* when the standard route dies of memory exhaustion, re-plan the
         same program down the shredded route and answer from there *)
}

let default_config =
  {
    cluster = Exec.Config.default;
    skew_aware = false;
    cogroup = true;
    optimizer = Plan.Optimize.default;
    materializer = Materialize.default;
    collect = true;
    trace = false;
    faults = [];
    route_fallback = true;
  }

type failure = Exec.Failure.t =
  | Out_of_memory of { stage : string; worker_bytes : int; budget : int }
  | Task_failed of { stage : string; partition : int; attempts : int }
  | Deadline_missed of { stage : string; sim_seconds : float; deadline : float }
  | Error of string

let failure_message = Exec.Failure.message

(* How a run that did not answer entirely in memory got its answer: what
   spilled, and (after a route fallback) which route finally answered. *)
type degradation = {
  spilled_bytes : int;
  spill_partitions : int;
  spill_rounds : int;
  fell_back : bool; (* true when the shredded route answered for Standard *)
  answered_by : string; (* strategy name of the route that answered *)
  first_failure : failure option; (* the abandoned route's failure *)
}

type step_report = {
  step : string; (* source assignment name; "Unshred" for reassembly *)
  sim_seconds : float;
  stats : Exec.Stats.snapshot; (* this step's slice of the counters *)
  trace : Exec.Trace.span option; (* span tree when [config.trace] *)
}

type run = {
  strategy : string;
  config : config; (* the effective configuration the run executed under *)
  value : V.t option; (* collected result (None when [collect] is false) *)
  stats : Exec.Stats.t;
  wall_seconds : float;
  failure : failure option;
  steps : step_report list;
      (* one report per source step (shredded assignments are folded into
         the step they were materialized for); the trailing "Unshred"
         report covers result reassembly *)
  trace : Exec.Trace.span list;
      (* root spans, one per executed assignment; [] unless tracing *)
  degradation : degradation option;
      (* present whenever the run spilled or fell back to another route;
         [stats]/[steps]/[trace] always describe the answering route *)
}

let step_seconds r = List.map (fun s -> (s.step, s.sim_seconds)) r.steps

(** How the run ended, Spark-style: [Degraded] means faults were recovered
    (retries, speculation, recomputation), operators spilled to disk, or
    the driver fell back to the shredded route — but the answer is still
    the reference answer; [Failed] means a typed failure surfaced. *)
type outcome = Completed | Degraded | Failed

let outcome_name = function
  | Completed -> "completed"
  | Degraded -> "degraded"
  | Failed -> "failed"

let outcome (r : run) : outcome =
  match r.failure with
  | Some _ -> Failed
  | None ->
    let s = Exec.Stats.snapshot r.stats in
    if
      s.task_retries > 0 || s.speculative_tasks > 0 || s.recomputed_bytes > 0
      || s.spilled_bytes > 0 || r.degradation <> None
    then Degraded
    else Completed

(* Per-step accumulator: (step, stats slice, assignment spans in reverse).
   Survives a mid-run memory failure because it lives in a ref the caller
   holds on to. *)
type step_acc = (string * Exec.Stats.snapshot * Exec.Trace.span list) list

let record_step ~stats ~trace ~before ~step (acc : step_acc ref) : unit =
  let slice = Exec.Stats.diff (Exec.Stats.snapshot stats) before in
  let span = Option.bind trace Exec.Trace.last_root in
  acc :=
    match !acc with
    | (s, sl, spans) :: rest when s = step ->
      ( s,
        Exec.Stats.merge sl slice,
        (match span with None -> spans | Some sp -> sp :: spans) )
      :: rest
    | l -> (step, slice, Option.to_list span) :: l

let reports_of (acc : step_acc) : step_report list =
  List.rev_map
    (fun (step, slice, spans) ->
      {
        step;
        sim_seconds = slice.Exec.Stats.sim_seconds;
        stats = slice;
        trace =
          (match List.rev spans with
          | [] -> None
          | [ sp ] -> Some sp
          | sps -> Some (Exec.Trace.group ~op:"Step" ~stage:step sps));
      })
    acc

(* what a route's exception says, without its constructor when it
   carries a message *)
let exn_message = function
  | Nrc.Typecheck.Type_error m
  | Nrc.Eval.Eval_error m
  | Unnest.Unsupported m
  | Invalid_argument m
  | Failure m ->
    m
  | exn -> Printexc.to_string exn

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* run (step, assignment, plan) triples one at a time, slicing the stats
   (and trace) per step;
   one pool and one checkpoint manager span all of them so domains are
   spawned once and recovery lineage is run-wide. Each assignment is
   charged its real wall-clock, failed or not, like any other counter. *)
let run_steps ~options ~config ~stats ~trace ~faults ~checkpoint ~pool
    ~steps_out env plans =
  List.iter
    (fun (step, name, plan) ->
      let before = Exec.Stats.snapshot stats in
      let ds =
        try
          Exec.Trace.with_span trace ~op:"Assignment" ~stage:name (fun () ->
              let t0 = Unix.gettimeofday () in
              Fun.protect
                ~finally:(fun () ->
                  Exec.Trace.charge trace stats
                    {
                      Exec.Stats.zero with
                      wall_seconds = Unix.gettimeofday () -. t0;
                    })
                (fun () ->
                  Exec.Executor.run_plan ~options ?trace ?faults ~checkpoint
                    ~pool ~config ~stats env plan))
        with exn ->
          (* attribute the failure to its source step; the partially filled
             step slice is still recorded for the failure report. Any other
             exception escaping the executor (a plan naming an unknown
             input, say) is a failure of the step too, typed as [Error]. *)
          let f =
            match exn with
            | Exec.Failure.Failed f -> Exec.Failure.with_stage step f
            | exn -> Exec.Failure.Error (Printf.sprintf "%s: %s" step (exn_message exn))
          in
          record_step ~stats ~trace ~before ~step steps_out;
          raise (Exec.Failure.Failed f)
      in
      Hashtbl.replace env name ds;
      record_step ~stats ~trace ~before ~step steps_out)
    plans

let pp_run ppf r =
  match r.failure with
  | Some f ->
    Fmt.pf ppf "%-14s FAIL (%s) after %.3fs [%a]" r.strategy
      (failure_message f) r.wall_seconds Exec.Stats.pp r.stats
  | None ->
    let how =
      match r.degradation with
      | Some d when d.fell_back ->
        Printf.sprintf " (fell back to %s)" d.answered_by
      | Some _ -> " (spilled)"
      | None -> ""
    in
    Fmt.pf ppf "%-14s ok%s in %.3fs [%a]" r.strategy how r.wall_seconds
      Exec.Stats.pp r.stats

(* ------------------------------------------------------------------ *)
(* JSON reporting *)

(* The effective configuration, embedded in the report so an exported run
   is self-describing and replayable from the JSON alone. It stays flat:
   readers may cut it at its first '}'. *)
let config_json (c : config) =
  Exec.Json.Obj
    (Exec.Config.json_fields c.cluster
    @ [ ("skew_aware", Bool c.skew_aware); ("cogroup", Bool c.cogroup);
        ("collect", Bool c.collect); ("trace", Bool c.trace);
        ("route_fallback", Bool c.route_fallback);
        ( "faults",
          if c.faults = [] then Null else String (Exec.Faults.schedule_to_string c.faults) ) ])

let run_report (r : run) : Exec.Json.t =
  let failure = function None -> Exec.Json.Null | Some f -> String (failure_message f) in
  let step (s : step_report) =
    Exec.Json.Obj
      [ ("step", String s.step); ("sim_seconds", Float s.sim_seconds);
        ("stats", Exec.Stats.json s.stats);
        ("trace", match s.trace with None -> Null | Some sp -> Exec.Trace.json sp) ]
  in
  Obj
    [ ("strategy", String r.strategy); ("wall_seconds", Float r.wall_seconds);
      ("outcome", String (outcome_name (outcome r))); ("failure", failure r.failure);
      ( "degradation",
        match r.degradation with
        | None -> Null
        | Some d ->
          Obj
            [ ("spilled_bytes", Int d.spilled_bytes);
              ("spill_partitions", Int d.spill_partitions);
              ("spill_rounds", Int d.spill_rounds); ("fell_back", Bool d.fell_back);
              ("answered_by", String d.answered_by);
              ("first_failure", failure d.first_failure) ] );
      ("config", config_json r.config);
      ("totals", Exec.Stats.json (Exec.Stats.snapshot r.stats));
      ("steps", List (List.map step r.steps));
      ("trace", List (List.map Exec.Trace.json r.trace)) ]

let run_json r = Exec.Json.to_string (run_report r)

(* ------------------------------------------------------------------ *)
(* Plan compilation *)

(* The one place a route's plans are optimized, and the one place the
   cogroup fusion is decided: it is off for skew-aware runs, whose joins
   split heavy keys instead. *)
let optimize cfg plan =
  let plan = Plan.Optimize.optimize ~config:cfg.optimizer plan in
  if cfg.cogroup && not cfg.skew_aware then Plan.Optimize.cogroup plan else plan

let optimize_all cfg plans =
  List.map (fun (name, plan) -> (name, optimize cfg plan)) plans

(** Standard route: one optimized plan per assignment. *)
let compile_standard ?(config = default_config) (p : Nrc.Program.t) :
    (string * Plan.Op.t) list =
  optimize_all config (Unnest.translate_program p)

type shredded_compiled = {
  pipeline : Shred_pipeline.t;
  plans : (string * Plan.Op.t) list; (* materialized assignments *)
  unshred_plan : Plan.Op.t option;
}

(** Shredded route: shred + materialize, compile each materialized
    assignment, wrap dictionary outputs in BagToDict (label partitioning
    guarantee), and compile the unshredding query. *)
let compile_shredded ?(config = default_config) (p : Nrc.Program.t) :
    shredded_compiled =
  (* uniqueness hints carry over to the shredded top bags (R -> R_F) *)
  let inputs = Registry.of_inputs p.Nrc.Program.inputs in
  let config =
    { config with
      optimizer =
        { config.optimizer with
          unique_keys =
            config.optimizer.unique_keys
            @ List.map
                (fun (r, fields) -> (Registry.name inputs (Top r), fields))
                config.optimizer.unique_keys } }
  in
  let pipeline =
    Shred_pipeline.shred_program ~config:config.materializer p
  in
  let plans =
    List.map2
      (fun (name, plan) (_, { Shred_pipeline.dict; _ }) ->
        if dict then
          (name, Plan.Op.BagToDict { input = plan; label = S.Col [ "label" ] })
        else (name, plan))
      (Unnest.translate_program pipeline.Shred_pipeline.mat)
      pipeline.Shred_pipeline.origins
  in
  let plans = optimize_all config plans in
  let unshred_plan =
    Option.map
      (fun q ->
        let full_env =
          Nrc.Program.typecheck ~source:false pipeline.Shred_pipeline.mat
        in
        let tenv =
          Nrc.Typecheck.Env.fold (fun k v acc -> (k, v) :: acc) full_env []
        in
        optimize config (Unnest.translate ~tenv q))
      pipeline.Shred_pipeline.unshred_query
  in
  { pipeline; plans; unshred_plan }

(* ------------------------------------------------------------------ *)
(* Execution *)

let load_inputs ~cluster (types : (string * T.t) list)
    (values : (string * V.t) list) : Exec.Executor.env =
  ignore types;
  let env = Hashtbl.create 16 in
  List.iter
    (fun (name, v) ->
      Hashtbl.replace env name
        (Exec.Dataset.of_bag ~partitions:cluster.Exec.Config.partitions v))
    values;
  env

(* Shred the nested inputs on [pool] straight onto the cluster's
   partitions ({!Shred_value.place}): each top bag round-robin, each
   dictionary by label, with its label guarantee. Other inputs load
   round-robin under the name the registry gives them. *)
let load_shredded ~pool ~cluster (types : (string * T.t) list)
    (values : (string * V.t) list) : Exec.Executor.env =
  let partitions = cluster.Exec.Config.partitions in
  let env = Hashtbl.create 16 in
  List.iter
    (fun (name, v, shredded) ->
      match shredded with
      | Some datasets -> List.iter (fun (n, d) -> Hashtbl.replace env n d) datasets
      | None -> Hashtbl.replace env name (Exec.Dataset.of_bag ~partitions v))
    (Shred_value.place pool ~partitions types values);
  env

let load_shredded_inputs ~cluster types values =
  Exec.Pool.with_pool ~domains:cluster.Exec.Config.domains (fun pool ->
      load_shredded ~pool ~cluster types values)

(* [fell_back] exactly when an earlier route's failure was abandoned *)
let degradation_of (s : Exec.Stats.snapshot) ~answered_by ~first_failure =
  {
    spilled_bytes = s.spilled_bytes;
    spill_partitions = s.spill_partitions;
    spill_rounds = s.spill_rounds;
    fell_back = first_failure <> None;
    answered_by = strategy_name answered_by;
    first_failure;
  }

let catch_failure f =
  match f () with v -> Ok v | exception Exec.Failure.Failed f -> Error f

(* Compiling or loading raises when the route cannot run the program (a
   type error, a program shredding does not support) or its inputs do not
   load: the run fails typed, as [Error "<phase>: <message>"]. *)
let in_phase phase f =
  match f () with
  | v -> v
  | exception exn ->
    raise (Exec.Failure.Failed (Exec.Failure.Error (phase ^ ": " ^ exn_message exn)))

(* a run that failed before executing anything *)
let not_run ~strategy ~config failure =
  {
    strategy = strategy_name strategy;
    config;
    value = None;
    stats = Exec.Stats.create ();
    wall_seconds = 0.;
    failure = Some failure;
    steps = [];
    trace = [];
    degradation = None;
  }

(* One route, one run; never raises a typed failure. Both routes take the
   same path: compile to (name, plan) steps, load the inputs and spawn the
   pool inside a failure-catching region, then run the steps on that pool
   inside one timed, failure-catching region. The Shred+Unshred reassembly
   is one more step, named "Unshred". *)
let run_once ~(config : config) ~(strategy : strategy) (p : Nrc.Program.t)
    (input_values : (string * V.t) list) : run =
  (* AddIndex ids and label sites feed partition assignment: reset both so
     identical runs (and fault-injection replays) are bit-for-bit
     deterministic *)
  Exec.Executor.reset_ids ();
  Shred_type.reset_sites ();
  let stats = Exec.Stats.create () in
  let trace = if config.trace then Some (Exec.Trace.create ()) else None in
  let cluster = config.cluster in
  let faults =
    match config.faults with
    | [] -> None
    | sch -> Some (Exec.Faults.make ~seed:cluster.Exec.Config.seed sch)
  in
  (* one manager per run attempt: recovery lineage spans every step *)
  let checkpoint = Exec.Checkpoint.make cluster in
  let config =
    match strategy with
    | SparkSQL_proxy ->
      (* no cogroup, no aggregation pushdown, and no column pruning: explode
         stays with the source relation and carries full-width tuples
         (Section 6, "SparkSQL does not support explode in the SELECT
         clause...") *)
      { config with
        cogroup = false;
        optimizer =
          { config.optimizer with push_aggs = false; prune_columns = false } }
    | _ -> config
  in
  let options =
    { Exec.Executor.skew_aware = config.skew_aware; cogroup = config.cogroup }
  in
  let prepared =
    catch_failure (fun () ->
        let steps, load =
          match strategy with
          | Standard | SparkSQL_proxy ->
            let plans, result_name =
              in_phase "compile" (fun () ->
                  (compile_standard ~config p, Nrc.Program.result_name p))
            in
            ( (List.map (fun (name, plan) -> (name, name, plan)) plans, result_name),
              fun ~pool:_ -> load_inputs )
          | Shredded { unshred } -> (
            let compiled = in_phase "compile" (fun () -> compile_shredded ~config p) in
            let plans =
              List.map2
                (fun (name, plan) (_, { Shred_pipeline.step; _ }) ->
                  (step, name, plan))
                compiled.plans compiled.pipeline.Shred_pipeline.origins
            in
            ( (match unshred, compiled.unshred_plan with
              | true, Some uplan -> (plans @ [ ("Unshred", "Unshred", uplan) ], "Unshred")
              | _ -> (plans, compiled.pipeline.Shred_pipeline.top)),
              load_shredded ))
        in
        (* the pool is spawned once per run, before loading, which runs on
           it too, and outside the timed region, so wall_seconds measures
           execution rather than domain startup *)
        let pool =
          in_phase "pool" (fun () -> Exec.Pool.create ~domains:cluster.Exec.Config.domains)
        in
        match
          in_phase "load" (fun () -> load ~pool ~cluster p.Nrc.Program.inputs input_values)
        with
        | env -> (steps, env, pool)
        | exception e ->
          Exec.Pool.shutdown pool;
          raise e)
  in
  match prepared with
  | Error f -> not_run ~strategy ~config f
  | Ok ((plans, result_name), env, pool) ->
    let steps_out = ref [] in
    let outcome, wall =
      Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () ->
          timed (fun () ->
              catch_failure (fun () ->
                  run_steps ~options ~config:cluster ~stats ~trace
                    ~faults ~checkpoint ~pool ~steps_out env plans;
                  if config.collect then
                    Some (Exec.Dataset.to_bag (Hashtbl.find env result_name))
                  else None)))
    in
    let s = Exec.Stats.snapshot stats in
    let value, failure =
      match outcome with Ok v -> (v, None) | Error f -> (None, Some f)
    in
    {
      strategy = strategy_name strategy;
      config;
      value;
      stats;
      wall_seconds = wall;
      failure;
      steps = reports_of !steps_out;
      trace = (match trace with None -> [] | Some c -> Exec.Trace.roots c);
      degradation =
        (if s.spilled_bytes > 0 && failure = None then
           Some (degradation_of s ~answered_by:strategy ~first_failure:None)
         else None);
    }

(** Run a program with the given strategy; never raises a typed failure.
    A configuration {!Exec.Config.validate} rejects ends the run at once
    as [Error]. When the standard route dies of memory exhaustion — the
    spilling layer itself denied a reservation, or spilling is off — and
    [config.route_fallback] is on, the driver re-plans the same program
    down the shredded route (query shredding usually fits where flattening
    cannot) and answers from there, surfacing the whole story as a
    [degradation] record. The returned [stats]/[steps]/[trace] describe
    the answering route; [wall_seconds] covers both attempts. *)
let run ?(config = default_config) ~(strategy : strategy)
    (p : Nrc.Program.t) (input_values : (string * V.t) list) : run =
  match Exec.Config.validate config.cluster with
  | Error msg -> not_run ~strategy ~config (Error msg)
  | Ok _ -> (
    let r = run_once ~config ~strategy p input_values in
    match r.failure, strategy with
    | Some (Out_of_memory _ as first), Standard when config.route_fallback -> (
      let fallback = Shredded { unshred = true } in
      let r2 = run_once ~config ~strategy:fallback p input_values in
      match r2.failure with
      | Some _ -> r (* both routes failed: report the original failure *)
      | None ->
        {
          r2 with
          wall_seconds = r.wall_seconds +. r2.wall_seconds;
          degradation =
            Some
              (degradation_of
                 (Exec.Stats.snapshot r2.stats)
                 ~answered_by:fallback ~first_failure:(Some first));
        })
    | _ -> r)
