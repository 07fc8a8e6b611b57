(** Execution metrics collected by the simulator; see stats.mli. *)

type snapshot = {
  shuffled_bytes : int;
  broadcast_bytes : int;
  peak_worker_bytes : int;
  rows_processed : int;
  stages : int;
  sim_seconds : float;
  task_retries : int;
  retried_tasks : int;
  speculative_tasks : int;
  recomputed_bytes : int;
  spilled_bytes : int;
  spill_partitions : int;
  spill_rounds : int;
  checkpoints_written : int;
  checkpoint_bytes : int;
  lineage_truncated : int;
  recovery_seconds : float;
  wall_seconds : float;
}

let zero : snapshot =
  {
    shuffled_bytes = 0;
    broadcast_bytes = 0;
    peak_worker_bytes = 0;
    rows_processed = 0;
    stages = 0;
    sim_seconds = 0.;
    task_retries = 0;
    retried_tasks = 0;
    speculative_tasks = 0;
    recomputed_bytes = 0;
    spilled_bytes = 0;
    spill_partitions = 0;
    spill_rounds = 0;
    checkpoints_written = 0;
    checkpoint_bytes = 0;
    lineage_truncated = 0;
    recovery_seconds = 0.;
    wall_seconds = 0.;
  }

(* The one field table: every pointwise operation on two snapshots goes
   through [combine], with one operator per kind of counter. *)
let combine ~int ~float ~peak (a : snapshot) (b : snapshot) : snapshot =
  {
    shuffled_bytes = int a.shuffled_bytes b.shuffled_bytes;
    broadcast_bytes = int a.broadcast_bytes b.broadcast_bytes;
    peak_worker_bytes = peak a.peak_worker_bytes b.peak_worker_bytes;
    rows_processed = int a.rows_processed b.rows_processed;
    stages = int a.stages b.stages;
    sim_seconds = float a.sim_seconds b.sim_seconds;
    task_retries = int a.task_retries b.task_retries;
    retried_tasks = int a.retried_tasks b.retried_tasks;
    speculative_tasks = int a.speculative_tasks b.speculative_tasks;
    recomputed_bytes = int a.recomputed_bytes b.recomputed_bytes;
    spilled_bytes = int a.spilled_bytes b.spilled_bytes;
    spill_partitions = int a.spill_partitions b.spill_partitions;
    spill_rounds = int a.spill_rounds b.spill_rounds;
    checkpoints_written = int a.checkpoints_written b.checkpoints_written;
    checkpoint_bytes = int a.checkpoint_bytes b.checkpoint_bytes;
    lineage_truncated = int a.lineage_truncated b.lineage_truncated;
    recovery_seconds = float a.recovery_seconds b.recovery_seconds;
    wall_seconds = float a.wall_seconds b.wall_seconds;
  }

let merge = combine ~int:( + ) ~float:( +. ) ~peak:max
let diff = combine ~int:( - ) ~float:( -. ) ~peak:(fun after _ -> after)

(* The running total is one left fold of [merge] over the charged deltas,
   in charge order: the float counters are summed exactly as the executor
   charges them, which is what keeps pinned [sim_seconds] values stable. *)
type t = { mutable total : snapshot }

let create () = { total = zero }
let snapshot t = t.total
let charge t d = t.total <- merge t.total d

(* Equivalence campaigns compare parallel against sequential snapshots:
   everything must match bit-for-bit except the one quantity that is
   *supposed* to change with the domain count. *)
let strip_wall (s : snapshot) : snapshot = { s with wall_seconds = 0. }

let pp_snapshot ppf (s : snapshot) =
  Fmt.pf ppf
    "shuffle=%.1fMB broadcast=%.1fMB peak_worker=%.1fMB rows=%d stages=%d \
     sim=%.2fs"
    (float_of_int s.shuffled_bytes /. 1048576.)
    (float_of_int s.broadcast_bytes /. 1048576.)
    (float_of_int s.peak_worker_bytes /. 1048576.)
    s.rows_processed s.stages s.sim_seconds;
  if s.task_retries > 0 || s.speculative_tasks > 0 || s.recomputed_bytes > 0
  then
    Fmt.pf ppf " retries=%d retried=%d spec=%d recomp=%.1fKB" s.task_retries
      s.retried_tasks s.speculative_tasks
      (float_of_int s.recomputed_bytes /. 1024.);
  if s.spilled_bytes > 0 || s.spill_rounds > 0 then
    Fmt.pf ppf " spilled=%.1fKB spill_parts=%d spill_rounds=%d"
      (float_of_int s.spilled_bytes /. 1024.)
      s.spill_partitions s.spill_rounds;
  if s.checkpoints_written > 0 || s.recovery_seconds > 0. then
    Fmt.pf ppf " ckpts=%d ckptKB=%.1f trunc=%.1fKB recovery=%.2fs"
      s.checkpoints_written
      (float_of_int s.checkpoint_bytes /. 1024.)
      (float_of_int s.lineage_truncated /. 1024.)
      s.recovery_seconds;
  if s.wall_seconds > 0. then Fmt.pf ppf " wall=%.3fs" s.wall_seconds

let pp ppf t = pp_snapshot ppf t.total

(* Every counter in every snapshot, zero-valued or not, so downstream
   diffing of the JSON never sees keys come and go. *)
let json_fields (s : snapshot) : (string * Json.t) list =
  [ ("shuffled_bytes", Int s.shuffled_bytes); ("broadcast_bytes", Int s.broadcast_bytes);
    ("peak_worker_bytes", Int s.peak_worker_bytes); ("rows_processed", Int s.rows_processed);
    ("stages", Int s.stages); ("sim_seconds", Float s.sim_seconds);
    ("task_retries", Int s.task_retries); ("retried_tasks", Int s.retried_tasks);
    ("speculative_tasks", Int s.speculative_tasks);
    ("recomputed_bytes", Int s.recomputed_bytes); ("spilled_bytes", Int s.spilled_bytes);
    ("spill_partitions", Int s.spill_partitions); ("spill_rounds", Int s.spill_rounds);
    ("checkpoints_written", Int s.checkpoints_written);
    ("checkpoint_bytes", Int s.checkpoint_bytes);
    ("lineage_truncated", Int s.lineage_truncated);
    ("recovery_seconds", Float s.recovery_seconds); ("wall_seconds", Float s.wall_seconds) ]

let json s = Json.Obj (json_fields s)
