(** The distributed plan executor: evaluates plans over partitioned
    datasets the way a Spark cluster would, fully instrumented.

    - every operator takes and returns {!Dataset.t}, the one type of
      partitioned data: rows under one schema, each with the size the
      kernel or loader that built it returned, and the guarantee and heavy
      keys over its columns. A [Scan] renames a stored dataset's column ["item"] to
      its binder — no task, no allocation per row, no walk — and
      {!run_plan} packs the plan's rows back into that column once
      ({!Plan.Kernel.pack});
    - each pool task runs its operator's {!Plan.Kernel}, the per-partition
      row code {!Plan.Local_eval} runs as one partition; shuffles place
      rows by {!Plan.Kernel.hash_key}, as {!Dataset.of_bag_by} does;
    - joins pick between broadcast (small right side) and shuffle hash
      join, honouring partitioning guarantees to skip shuffles;
    - Gamma-plus performs map-side partial aggregation before shuffling
      ("mitigates skew-effects by default", Section 5);
    - a {!Plan.Op.Cogroup} (the join+nest fusion of Section 3, which
      {!Plan.Optimize.cogroup} decides) runs as one broadcast or shuffle
      stage over both sides, with no flattened intermediate;
    - skew-aware mode implements Figure 6: per-partition sampling finds
      heavy keys; the light part follows the standard implementation while
      the heavy part keeps its location and receives broadcast partners;
      [BagToDict] repartitions only light labels;
    - every operator is accounted, from the partition byte sizes the pool
      tasks return with their partitions: shuffled and
      broadcast bytes, per-worker residency reserved through the
      {!Memory} manager — fitting, spilling
      the operator's build side to simulated disk ({!Config.t.spill}
      [= On], charged as [spilled_bytes]/[spill_partitions]/[spill_rounds]
      plus disk time), or denied (failing with {!Failure.Out_of_memory}) —
      and simulated time from per-stage maxima over partitions;
    - each accounted quantity is one {!Trace.charge} of a {!Stats.snapshot}
      delta, feeding the run's {!Stats.t} and, when a {!Trace.ctx} is
      passed, the innermost span of a per-operator span tree (one span per
      plan operator, named by {!Plan.Op.name}, its children's spans and
      its shuffles inside) — the observability layer of {!Trace}.

    Every typed failure is raised as {!Failure.Failed}. *)

type options = {
  skew_aware : bool;  (** the skew-resilient operators of Section 5 *)
  cogroup : bool;
      (** read by nothing: the executor runs the cogroups the plan holds.
          Kept only because the benchmark harness ([perfbench/main.ml])
          builds this record literally. *)
}

val default_options : options
(** Skew-unaware. *)

type env = (string, Dataset.t) Hashtbl.t

val env_of_list : (string * Dataset.t) list -> env

val reset_ids : unit -> unit
(** Reset the global [AddIndex] id counter. The ids feed
    {!Plan.Kernel.hash_key} and
    therefore partition assignment, so callers that need run-for-run
    determinism (fault-injection replay; {!Trance.Api.run} calls this)
    reset before each run. *)

val run_rows :
  ?options:options ->
  ?trace:Trace.ctx ->
  ?faults:Faults.t ->
  ?checkpoint:Checkpoint.t ->
  pool:Pool.t ->
  config:Config.t ->
  stats:Stats.t ->
  env ->
  Plan.Op.t ->
  Dataset.t
(** {!run_plan} on the given pool, before its rows are packed: the plan's
    own rows and schema, partition by partition. *)

val run_plan :
  ?options:options ->
  ?trace:Trace.ctx ->
  ?faults:Faults.t ->
  ?checkpoint:Checkpoint.t ->
  ?pool:Pool.t ->
  config:Config.t ->
  stats:Stats.t ->
  env ->
  Plan.Op.t ->
  Dataset.t
(** Execute one plan against named datasets, its rows packed into a stored
    dataset ({!Dataset}) for later plans to scan. Partition tasks run on the
    given {!Pool} (or a fresh one sized by {!Config.t.domains}, shut down
    on exit); any domain count produces bit-identical results, stats,
    traces, fault victims, spill decisions and checkpoint bytes — only
    wall-clock time changes. With [?trace], the plan run
    appears as one root span per top-level operator in the context. With
    [?faults], the injector is consulted at every compute and shuffle stage
    and injected events are recovered with Spark's semantics (bounded
    per-task retry, lineage re-execution — truncated at the nearest
    checkpoint — speculation); recovery cost shows up in {!Stats} and the
    trace. A {!Checkpoint} manager is created from [config] when not
    supplied, so recovery lineage accrues even under
    {!Config.No_checkpoints}; pass one explicitly (and one pool) to share
    lineage and domains across the plans of a run, as {!Trance.Api}
    does.
    @raise Failure.Failed with [Out_of_memory] when a worker exceeds its
    (possibly squeezed) budget and cannot spill — spilling off, or the
    stage would need more than {!Config.t.max_spill_rounds} build passes;
    with [Task_failed] when an injected task failure exhausts
    {!Config.t.max_task_attempts}; with [Deadline_missed] at the first
    stage boundary past {!Config.t.deadline}, so a deadline-bound run can
    never silently keep recomputing. *)
