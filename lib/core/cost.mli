(** Cost estimation for compiled plans — the paper's stated future work
    (Section 8: "cost estimation for these programs, and the application of
    such estimates to optimization decisions").

    Per-table statistics come from the actual inputs; cardinalities
    propagate through plan operators with documented textbook heuristics;
    the scalar objective mirrors the simulator's time model (CPU bytes +
    weighted network bytes). The [cost_model] bench target validates the
    standard-vs-shredded ranking against measured simulator times. *)

type table_stats = {
  rows : float;
  row_bytes : float;  (** average top-level row size *)
  fanouts : (string list * float) list;
      (** average inner-bag size per attribute path *)
}

type stats = (string * table_stats) list

val stats_of_bag : Nrc.Value.t -> table_stats
val stats_of_inputs : (string * Nrc.Value.t) list -> stats

type estimate = {
  out_rows : float;
  out_bytes : float;  (** total output bytes *)
  cpu : float;  (** bytes touched *)
  net : float;  (** bytes shuffled or broadcast *)
}

val estimate : stats -> Plan.Op.t -> estimate

type recommendation = {
  standard_cost : float;
  shredded_cost : float;
  pick : [ `Standard | `Shredded ];
}

(** Young–Daly checkpoint interval under the simulator's cost model. *)
type checkpoint_estimate = {
  avg_stage_bytes : float;  (** estimated bytes an average stage produces *)
  interval : int;  (** recommended {!Exec.Config.Every} interval, >= 1 *)
  write_seconds : float;  (** estimated cost of one checkpoint write *)
  expected_recompute_seconds : float;
      (** expected per-stage recompute cost at that interval *)
}

val recommend_checkpoint_interval :
  Exec.Config.t -> stats -> (string * Plan.Op.t) list -> checkpoint_estimate
(** Balance the amortized checkpoint-write cost against the expected
    lineage-recompute cost under {!Exec.Config.t.fault_rate}:
    [k = sqrt (2 * write_seconds / (fault_rate * stage_seconds))], Young's
    first-order optimum, clamped to at least 1. Surfaced by
    [trance recommend]. *)

val recommend :
  ?config:Api.config ->
  ?unshred:bool ->
  Nrc.Program.t ->
  (string * Nrc.Value.t) list ->
  recommendation
(** Estimate both routes and pick the cheaper; with [unshred] the shredded
    estimate includes reassembling the nested output. *)

