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
          there, reported as a {!degradation} *)
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

(** How a run that did not answer entirely in memory got its answer. *)
type degradation = {
  spilled_bytes : int;  (** bytes the answering route wrote to disk *)
  spill_partitions : int;
  spill_rounds : int;
  fell_back : bool;
      (** the standard route was abandoned and the shredded route answered *)
  answered_by : string;  (** strategy name of the answering route *)
  first_failure : failure option;
      (** the abandoned route's failure when [fell_back] *)
}

type step_report = {
  step : string;
      (** source assignment name; each materialized assignment of the
          shredded route folds into the step it was made for (recorded in
          {!Shred_pipeline.t.origins}), so every route reports the same
          steps; ["Unshred"] covers reassembly *)
  sim_seconds : float;
  stats : Exec.Stats.snapshot;
      (** this step's slice of the run counters; slices
          {!Exec.Stats.merge} back to the run totals (with
          [peak_worker_bytes] as the max over steps) *)
  trace : Exec.Trace.span option;
      (** the step's span tree when tracing was on (a synthetic ["Step"]
          span groups multi-assignment steps) *)
}

type run = {
  strategy : string;
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
  degradation : degradation option;
      (** present when the run spilled or fell back; [stats]/[steps]/
          [trace] always describe the answering route *)
}

val step_seconds : run -> (string * float) list
(** Simulated seconds per step — the shape of the old [step_seconds]
    field. *)

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
    failure, degradation, the effective ["config"] (flat: the
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

(** {2 Input loading} *)

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
(** Value-shred nested inputs straight onto [cluster]'s partitions
    ({!Shred_value.place}), on a temporary pool of [cluster.domains]
    lanes — {!run} loads on its run's pool the same way. The dictionaries
    the shredder made are loaded with their label partitioning guarantee,
    every other dataset without one, whatever its name. *)

(** {2 Execution} *)

val run :
  ?config:config ->
  strategy:strategy ->
  Nrc.Program.t ->
  (string * Nrc.Value.t) list ->
  run
(** Compile and execute; never raises a typed failure. A cluster
    configuration {!Exec.Config.validate} rejects fails at once with
    [Error] and runs nothing. A program the route cannot compile (a type
    error, a program shredding does not support) or inputs that do not
    load end the run as [Error "compile: <message>"] or
    [Error "load: <message>"]. Any other exception escaping the executor
    (e.g. a plan scanning an input that was not supplied) ends the run as
    [Error "<step>: <exception>"]. A Standard run that dies of memory
    exhaustion re-plans down the shredded route when
    [config.route_fallback] is on (see {!degradation}); [wall_seconds] then
    covers both attempts and the reported stats are the answering
    route's. *)
