(** Execution metrics collected by the simulator: shuffled and broadcast
    bytes, peak per-worker residency, and a simulated wall-clock built from
    per-stage maxima over partitions (which is where skew and load
    imbalance appear).

    {!snapshot} is the one record of the run counters. Everything that
    records a quantity builds a delta of that record and {!charge}s it:
    the executor charges each accounted quantity once, through
    {!Trace.charge}, which feeds both the run's {!t} and the innermost
    span. Per-step slices are computed with {!snapshot} + {!diff}.

    A snapshot's JSON is {!json}, a {!Json.t} that the run report, the step
    slices and the span metrics all embed; {!Json} prints it. *)

(** The run counters at one instant, or a delta of them. *)
type snapshot = {
  shuffled_bytes : int;
  broadcast_bytes : int;
  peak_worker_bytes : int;  (** a high-water mark: merges by [max] *)
  rows_processed : int;
  stages : int;  (** shuffle boundaries *)
  sim_seconds : float;
  task_retries : int;  (** extra task attempts beyond the first *)
  retried_tasks : int;  (** distinct tasks that needed more than one attempt *)
  speculative_tasks : int;  (** speculative duplicates launched *)
  recomputed_bytes : int;  (** bytes recomputed or re-fetched during recovery *)
  spilled_bytes : int;  (** bytes written to simulated disk by spilling stages *)
  spill_partitions : int;  (** on-disk build partitions created while spilling *)
  spill_rounds : int;  (** extra build passes executed by spilling stages *)
  checkpoints_written : int;  (** stage outputs materialized to stable storage *)
  checkpoint_bytes : int;  (** bytes materialized (one replica's worth) *)
  lineage_truncated : int;  (** lineage bytes checkpoints made unreplayable *)
  recovery_seconds : float;
      (** simulated seconds spent paying for fault recovery: retries,
          speculation, lineage replay — a slice of [sim_seconds] *)
  wall_seconds : float;
      (** real elapsed seconds, measured by the driver ({!Trance.Api}
          charges each assignment's wall-clock — never the executor, whose
          accounting stays a pure function of the plan and the
          configuration). Unlike every other counter, this one is {e not}
          deterministic and it {e does} change with {!Config.t.domains};
          equivalence campaigns compare snapshots through {!strip_wall} *)
}

val zero : snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum; [peak_worker_bytes] merges by [max]. Aggregates slices
    back into totals, and applies a delta in {!charge}. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff after before]: additive counters subtract; [peak_worker_bytes]
    keeps [after]'s value (the peak is a run-wide high-water mark, so a
    slice reports the peak reached by the end of its step). *)

val strip_wall : snapshot -> snapshot
(** The snapshot with [wall_seconds] zeroed: the deterministic part, which
    must be bit-identical across {!Config.t.domains} settings. *)

type t
(** One run's running total: a mutable cell over a {!snapshot}. *)

val create : unit -> t
(** A fresh total, equal to {!zero}. *)

val charge : t -> snapshot -> unit
(** [charge t d] sets the total to [merge total d]. The total is one
    running sum in charge order, so the float counters are bit-stable for
    a given charge sequence. *)

val snapshot : t -> snapshot

val pp : Format.formatter -> t -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit

(** {2 JSON} *)

val json_fields : snapshot -> (string * Json.t) list
(** The 18 counters as fields, in declaration order: the one list behind
    the run totals, step slices and span metrics of
    [Trance.Api.run_json]. Every counter appears in every snapshot, so the
    schema never loses a key. *)

val json : snapshot -> Json.t
(** {!json_fields} as an object. *)
