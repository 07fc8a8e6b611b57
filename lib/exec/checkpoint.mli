(** Stage-boundary checkpointing for bounded recovery.

    PR 2's recovery recomputes a lost worker's partitions from lineage —
    which grows with the run, so under a fault {e storm} (repeated crashes,
    a crash during recovery of a prior crash) recompute cost is unbounded.
    This manager lets {!Executor} materialize a dataset to simulated
    replicated stable storage at accounted stage boundaries: the write
    costs [bytes * disk_weight * replication] simulated seconds (charged to
    the stage), and it {e truncates lineage}, so subsequent recovery
    replays from the nearest checkpoint instead of from the sources.

    The executor creates one manager per run {e unconditionally} — lineage
    accrues even under {!Config.No_checkpoints}, which is what makes the
    checkpointed-vs-not [recomputed_bytes] comparison meaningful. Placement
    is the {!Config.t.checkpoint} policy: explicit ([Every k]) or automatic
    ([Auto], a break-even test under {!Config.t.fault_rate}). Everything is
    a pure function of the run's accounting, so checkpoint decisions replay
    deterministically with the seed. *)

type t
(** One run's manager: the policy plus the lineage bytes and stage count
    accrued since the last checkpoint. Create a fresh one per run. *)

type write = {
  ckpt_bytes : int;  (** bytes materialized (one replica's worth) *)
  io_seconds : float;
      (** simulated write time: [ckpt_bytes * disk_weight * replication] *)
  truncated : int;  (** lineage bytes this checkpoint made unreplayable *)
}

val make : Config.t -> t

val observe : t -> bytes:int -> unit
(** Accrue lineage that is not stage output — shuffle movement, whose
    receipts would also have to be rebuilt when replaying from the last
    checkpoint. *)

val on_stage : t -> out_bytes:int -> write option
(** Account one finished compute stage with [out_bytes] of output: accrue
    it to lineage, then consult the policy. [Some w] means the executor
    must charge [w.io_seconds] to the stage and count the checkpoint;
    lineage is already truncated. Stages with no output never checkpoint. *)

val replay_bytes : t -> lost:int -> parts:int -> int
(** Lineage bytes a crash at the current stage forces survivors to replay
    for [lost] of [parts] partitions: everything accrued since the last
    checkpoint, apportioned to the lost share. Call {e before}
    {!on_stage} for the crashed stage, so its own (separately charged)
    output is not double-counted. *)
