(** Cluster-simulator configuration.

    The paper's testbed is a 5-worker Spark cluster (25 executors, 1000
    shuffle partitions, 64 GB per executor, 10 MB auto-broadcast, 2.5%
    heavy-key sampling threshold; Sections 5-6). The simulator preserves
    the ratios at laptop scale; [worker_mem] is the lever that turns memory
    saturation into {!Failure.Out_of_memory} — the paper's FAIL bars.

    A configuration runs only if {!validate} accepts it; {!Trance.Api.run}
    reports a rejected one as a failed run. {!json_fields} is the part of
    a run report's ["config"] object this module owns. *)

type spill =
  | Off  (** deny over-budget reservations: the paper's FAIL bars *)
  | On  (** stage the build side through simulated disk and finish slowly *)

(** Stage-boundary checkpoint placement (see {!Checkpoint}). *)
type checkpoint =
  | No_checkpoints  (** recovery always replays the full lineage *)
  | Every of int
      (** materialize the live dataset to replicated stable storage every K
          accounted compute stages *)
  | Auto
      (** checkpoint only where the expected recompute cost under
          [fault_rate] exceeds the write cost (a Young–Daly-style
          break-even test per stage boundary) *)

type t = {
  workers : int;  (** worker nodes; partitions assigned round-robin *)
  partitions : int;  (** shuffle partitions *)
  worker_mem : int;  (** byte budget per worker per stage *)
  broadcast_limit : int;  (** auto-broadcast threshold (Spark: 10 MB) *)
  sample_per_partition : int;  (** tuples sampled per partition for skew *)
  heavy_threshold : float;  (** fraction of a partition's sample (2.5%) *)
  cpu_weight : float;  (** simulated seconds per processed byte *)
  net_weight : float;  (** simulated seconds per byte received by a node *)
  seed : int;  (** also seeds the {!Faults} injector *)
  max_task_attempts : int;
      (** attempt budget per task before the run fails typed
          ({!Failure.Task_failed}); Spark's [spark.task.maxFailures] = 4 *)
  speculation : bool;
      (** launch a speculative duplicate for an injected straggler; the
          first copy to finish wins (Spark's [spark.speculation]) *)
  spill : spill;
      (** what the {!Memory} manager does when a stage's residency exceeds
          [worker_mem] (after any {!Faults.Mem_squeeze}) *)
  max_spill_rounds : int;
      (** most build passes a spilling stage may take before the manager
          denies the reservation and the stage fails typed OOM *)
  disk_weight : float;
      (** simulated seconds per byte written to or read back from disk *)
  checkpoint : checkpoint;
      (** when the executor materializes stage output to simulated
          replicated stable storage, truncating recovery lineage *)
  checkpoint_replication : int;
      (** copies written per checkpoint; the write cost is
          [bytes * disk_weight * replication] (HDFS default: 3) *)
  fault_rate : float;
      (** expected faults per accounted stage; drives [Auto] checkpoint
          placement and the {!Cost} interval recommendation *)
  deadline : float option;
      (** simulated-seconds budget for a whole run: a run that exceeds it
          (typically while paying for recovery) fails typed
          ({!Failure.Deadline_missed}) instead of recomputing unboundedly *)
  domains : int;
      (** OCaml domains the {!Pool} runs partition tasks on (including the
          calling one); 1 = today's sequential path. Parallel runs are
          bit-identical to sequential ones in everything but wall-clock
          time, so this is purely a speed knob. *)
}

val spill_of_string : string -> (spill, string) result
val spill_name : spill -> string

val checkpoint_of_string : string -> (checkpoint, string) result
(** CLI syntax: [off] (or [none]/[no]), [every=K] with K >= 1, [auto]. *)

val checkpoint_name : checkpoint -> string
(** Canonical round-trippable form of {!checkpoint_of_string}. *)

val json_fields : t -> (string * Json.t) list
(** The fields that make a run report replayable, in declaration order
    (from [workers] to [domains], without the skew and cost constants);
    [worker_mem] is -1 when unbounded, [deadline] [null] when unset. *)

val validate : t -> (t, string) result
(** Accept a configuration the simulator can run: [workers], [partitions],
    [domains], [max_task_attempts] and [sample_per_partition] at least 1;
    [cpu_weight], [net_weight], [disk_weight] and [fault_rate] finite and
    non-negative; [heavy_threshold] finite and in [0, 1]; a [deadline], if
    set, above 0; an [Every k] [checkpoint] with [k] at least 1;
    [checkpoint_replication] at least 1; and, with [spill = On],
    [max_spill_rounds] at least 1. Each of these would otherwise run as a
    different setting than the one asked for. The error names every
    offending field. *)

val with_env : (string -> string option) -> t -> (t, string) result
(** [with_env getenv t] applies the CI matrix hooks read through [getenv]:
    [TRANCE_DOMAINS] (domain count >= 1), [TRANCE_WORKER_MEM] (positive MB,
    or ["unbounded"]), [TRANCE_SPILL] (on|off) and [TRANCE_CHECKPOINT]
    (off|every=K|auto). An unset or empty variable leaves [t] unchanged; a
    malformed one is an error naming the variable and the accepted form. *)

val default : t
(** The built-in configuration under {!with_env}[ Sys.getenv_opt], so the
    whole suite can run under a swept budget — or on many cores — without
    code changes.
    @raise Stdlib.Failure at start-up when a set [TRANCE_*] hook is malformed. *)

val unbounded : t
(** [default] with no memory budget: for semantics-only tests. *)

val worker_of_partition : t -> int -> int
