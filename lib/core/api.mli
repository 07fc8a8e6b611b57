(** Top-level TraNCE-style API: compile an NRC program down one of the two
    routes of Figure 2 and execute it on the cluster simulator.

    - {b Standard}: unnesting -> plan -> optimization -> distributed
      execution over nested top-level tuples (Section 3).
    - {b Shredded}: symbolic shredding -> materialization (domain
      elimination) -> per-assignment unnesting -> distributed execution
      over flat shredded datasets, optionally followed by unshredding
      (Section 4).

    Both routes accept skew-aware execution (Section 5). Every typed
    failure — memory exhaustion (the paper's FAIL bars), an abandoned
    task, a missed deadline, an invalid configuration — is reported as a
    failed run, never an exception. With [config.trace] on, every run additionally
    carries per-operator {!Exec.Trace} span trees, and each
    {!step_report} points at its step's span tree. A finished run exports
    as one {!Exec.Json.t}, {!run_report}; {!run_json} prints it. *)

type strategy =
  | Standard
  | Shredded of { unshred : bool }
      (** [unshred = true] reassembles the nested result (the paper's
          Shred+Unshred series); [false] leaves the shredded datasets for a
          downstream consumer and returns the top bag *)
  | SparkSQL_proxy
      (** the paper's strongest competitor, modelled as the standard route
          minus cogroup fusion, aggregation pushdown, and column pruning —
          the behavioural differences Section 6 identifies *)

val strategy_name : strategy -> string

type config = {
  cluster : Exec.Config.t;
  skew_aware : bool;  (** Section 5 operators *)
  cogroup : bool;
      (** join+nest fusion (Section 3, Optimization): {!Plan.Optimize.cogroup}
          runs after the optimizer on every compiled plan, unless
          [skew_aware]; a SparkSQL run turns it off *)
  optimizer : Plan.Optimize.config;
  materializer : Materialize.config;
  collect : bool;  (** gather the result back to the driver *)
  trace : bool;  (** record per-operator execution span trees *)
  faults : Exec.Faults.schedule;
      (** the deterministic fault storm this run will face (seeded from
          [cluster.seed]; [[]] is a clean run); recovery cost shows in the
          stats and trace, bounded by [cluster.checkpoint] placement *)
  route_fallback : bool;
      (** when a Standard run fails with {!Out_of_memory} — spilling off,
          or the spilling layer exhausted {!Exec.Config.t.max_spill_rounds}
          — re-plan the program down the shredded route and answer from
          there, keeping Standard's failure as {!run.abandoned} *)
}

val default_config : config
(** Tracing off, no faults, no checkpoints, route fallback on. *)

(** {2 Reporting} *)

(** {!Exec.Failure.t}, re-exported. Every stage is prefixed with its
    source step, e.g. ["Step2/unnest"], or ["Unshred/..."] for the
    reassembly step. *)
type failure = Exec.Failure.t =
  | Out_of_memory of { stage : string; worker_bytes : int; budget : int }
  | Task_failed of { stage : string; partition : int; attempts : int }
  | Deadline_missed of { stage : string; sim_seconds : float; deadline : float }
  | Error of string

val failure_message : failure -> string
(** {!Exec.Failure.message}, e.g. ["Step2/unnest: 5.0MB > 4.0MB"]. *)

type step_report = {
  step : string;
      (** source assignment name; each materialized assignment of the
          shredded route folds into the step it was made for (recorded in
          {!Shred_pipeline.t.origins}), so every route reports the same
          steps; ["Unshred"] covers reassembly *)
  stats : Exec.Stats.snapshot;
      (** this step's slice of the run counters, its simulated seconds
          included; slices {!Exec.Stats.merge} back to the run totals (with
          [peak_worker_bytes] as the max over steps) *)
  trace : Exec.Trace.span option;
      (** the step's span tree when tracing was on (a synthetic ["Step"]
          span groups multi-assignment steps) *)
}

(** Each figure a run reports is stored once: the spill counters live in
    [stats], the answering route in [strategy]; {!run_report} derives the
    ["degradation"] object from them and [abandoned]. *)
type run = {
  strategy : string;  (** name of the answering route *)
  config : config;  (** the effective configuration the run executed under *)
  value : Nrc.Value.t option;  (** None when not collected or failed *)
  stats : Exec.Stats.t;
      (** run totals; their [wall_seconds] sums the assignments' real
          wall-clock, charged by this driver — the executed part of
          {!run.wall_seconds}, which also covers result collection *)
  wall_seconds : float;
      (** real elapsed seconds; shrinks with {!Exec.Config.t.domains}
          while [sim_seconds] and every other counter stay bit-identical *)
  failure : failure option;
  steps : step_report list;  (** one report per source step, in run order *)
  trace : Exec.Trace.span list;
      (** root spans, one per executed assignment; [[]] unless
          [config.trace] *)
  abandoned : failure option;
      (** Standard's failure when the run fell back and the shredded route
          answered; [stats]/[steps]/[trace] always describe the answering
          route *)
}

(** How the run ended. [Degraded]: faults were recovered (retries,
    speculation, recomputation), operators spilled to disk, or the driver
    fell back to the shredded route — and the answer is still correct.
    [Failed]: a typed failure surfaced. *)
type outcome = Completed | Degraded | Failed

val outcome : run -> outcome
val outcome_name : outcome -> string

val pp_run : Format.formatter -> run -> unit

val run_report : run -> Exec.Json.t
(** The whole run as a JSON object: strategy, wall seconds, outcome,
    failure, degradation (built here: for a run that answered after
    spilling or falling back, the totals' spill counters, [fell_back],
    [answered_by] = [strategy] and [first_failure] = [abandoned]; [null]
    otherwise), the effective ["config"] (flat: the
    {!Exec.Config.json_fields}, this module's five switches and the fault
    schedule — enough to replay the run), totals and per-step slices as
    {!Exec.Stats.json}, span trees as {!Exec.Trace.json}. Every counter key
    and the ["degradation"] key appear in every run, so downstream diffs
    never see keys come and go. {!run} itself builds no JSON. *)

val run_json : run -> string
(** {!run_report}, printed by {!Exec.Json.to_string}. *)

(** {2 Compilation} *)

val compile_standard :
  ?config:config -> Nrc.Program.t -> (string * Plan.Op.t) list
(** One optimized plan per assignment, with cogroups where
    [config.cogroup] fuses them. *)

type shredded_compiled = {
  pipeline : Shred_pipeline.t;
  plans : (string * Plan.Op.t) list;
      (** materialized assignments; the dictionaries among them (recorded
          in {!Shred_pipeline.t.origins}) wrapped in [BagToDict] to
          establish the label partitioning guarantee *)
  unshred_plan : Plan.Op.t option;
}

val compile_shredded : ?config:config -> Nrc.Program.t -> shredded_compiled

(** {2 Input loading}

    {!run} loads its inputs on its run's pool: each round-robin under its
    own name on the Standard routes, all through {!Shred_value.place} on
    the shredded route. These wrappers load the same two ways, the second
    on a temporary pool of [cluster.domains] lanes; they are kept only
    for the benchmark harness, which times the load on its own. *)

val load_inputs :
  cluster:Exec.Config.t ->
  (string * Nrc.Types.t) list ->
  (string * Nrc.Value.t) list ->
  Exec.Executor.env

val load_shredded_inputs :
  cluster:Exec.Config.t ->
  (string * Nrc.Types.t) list ->
  (string * Nrc.Value.t) list ->
  Exec.Executor.env

(** {2 Execution} *)

val run :
  ?config:config ->
  strategy:strategy ->
  Nrc.Program.t ->
  (string * Nrc.Value.t) list ->
  run
(** Compile and execute; never raises a typed failure. A cluster
    configuration {!Exec.Config.validate} rejects, or a fault schedule
    {!Exec.Faults.check} rejects, fails at once with [Error] and runs
    nothing. Otherwise the run is one chain of phases — compile, pool,
    load, each step, collect: a typed failure in a phase reads
    [<phase>/<stage>: ...] (e.g. [Step2/unnest]), and any other exception
    [Error "<phase>: <message>"] ([compile: ...] for a program the route
    cannot compile, [pool: cannot start <n> domains: ...], [load: ...],
    [<step>: ...] for a plan scanning an input that was not supplied). A
    failure before the steps reports no steps and [wall_seconds = 0.]; a
    failure in a step still reports every step run so far, its own partial
    one included. A Standard run that dies of memory exhaustion re-plans
    down the shredded route when [config.route_fallback] is on; the run
    then reports the answering route's strategy, stats, steps and trace,
    Standard's failure as [abandoned], and [wall_seconds] covering both
    attempts. *)
