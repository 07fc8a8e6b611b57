(** Per-operator execution tracing: a span tree per plan run.

    Every operator the executor dispatches opens a {!span}; each accounted
    quantity (shuffled and broadcast bytes, rows, per-worker residency,
    simulated seconds, recovery, spill and checkpoint counters) is one
    {!charge} that feeds both the run's {!Stats.t} total and the innermost
    open span, so the tree agrees with the total by construction and
    answers the questions the flat total cannot: which
    join shuffled the bytes, where a worker saturated, and which strategy
    (broadcast, shuffle, guarantee-skipped, skew-split) each join picked —
    the per-stage attribution the paper uses to explain its Section 5–6
    results.

    Shuffles appear as their own child spans ([op = "Shuffle"]), so a
    broadcast join carries zero shuffled bytes of its own and a
    guarantee-skipped join has no shuffle child at all.

    Tracing is opt-in: every recording entry point takes a [ctx option];
    on [None] the span side is a no-op and {!charge} only charges the
    total.

    A tree is rendered as text by {!pp_tree} and as a {!Json.t} by {!json},
    which the run report embeds per step and per assignment. *)

(** How a join (or cogroup) moved its inputs. *)
type join_strategy =
  | Broadcast  (** right side replicated to every worker *)
  | Shuffle  (** both sides hash-partitioned on the join key *)
  | Guarantee_skipped
      (** both sides already carried the needed partitioning guarantee: no
          data moved (Section 4's label guarantee at work) *)
  | Skew_split of { heavy_keys : int }
      (** Figure 6: light keys shuffled, heavy keys kept in place with
          broadcast partners; [heavy_keys] is the detected heavy-key count *)

val strategy_name : join_strategy -> string

(** Metrics charged directly to one span (exclusive of children): the
    run counters of {!Stats.snapshot} — so a span carries exactly the
    fields the run total does, with [rows_processed] as the rows the
    span's stages output — plus the span-only fields. Partition load is
    tracked as (max, sum, count) over the per-partition output bytes of
    the span's stages, which makes skew visible as [max_partition_bytes]
    far above the mean. *)
type metrics = {
  counters : Stats.snapshot;
      (** [wall_seconds] is charged by the driver to assignment spans —
          see {!without_wall} *)
  rows_in : int;  (** rows the span's operator consumed *)
  max_partition_bytes : int;
  sum_partition_bytes : int;
  partitions : int;  (** partitions observed (for the mean) *)
}

type span = {
  id : int;  (** unique within one [ctx], in open order *)
  op : string;  (** operator name ({!Plan.Op.name}) or synthetic label *)
  stage : string;  (** executor stage detail, e.g. ["join(broadcast)"] *)
  strategy : join_strategy option;  (** join spans only *)
  metrics : metrics;  (** exclusive of children *)
  children : span list;  (** in execution order *)
}

val total : span -> metrics
(** Inclusive metrics: [metrics] merged with every descendant's. *)

val agg : span list -> metrics
(** The inclusive totals of a span forest, merged: {!Stats.merge} on the
    counters; [rows_in], [sum_partition_bytes] and [partitions] add,
    [max_partition_bytes] merges by [max]. *)

val agrees : span list -> Stats.snapshot -> bool
(** Whether a span forest's {!agg} counters equal a run total: every
    integer counter exactly, the float counters to rounding (the tree sums
    them in tree order, the total in charge order). *)

val find_all : (span -> bool) -> span list -> span list
(** All spans (depth-first) in a forest satisfying the predicate. *)

(** {2 Recording} *)

type ctx

val create : unit -> ctx

val roots : ctx -> span list
(** Completed top-level spans, in completion order. *)

val last_root : ctx -> span option

val with_span : ctx option -> op:string -> ?stage:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a fresh child span of the innermost open span. The
    span is closed (and kept) even if the thunk raises, so traces survive
    mid-run memory failures. On [None] this is just [f ()]. *)

val set_stage : ctx option -> string -> unit
(** Set the innermost open span's stage label. The first write wins, so a
    skew-split join's light/heavy sub-stages don't overwrite the join's own
    label. *)

val set_strategy : ctx option -> join_strategy -> unit
(** Record the innermost open span's join strategy. The first write wins:
    a skew-split join's light/heavy sub-joins do not overwrite it. *)

val charge : ctx option -> Stats.t -> Stats.snapshot -> unit
(** [charge ctx stats d]: the one way a counter delta is recorded.
    {!Stats.charge}s the run total, then merges [d] into the innermost open
    span (if any). The total is charged first and never derived from the
    span tree, so tracing cannot change its float summation order. *)

val add_rows_in : ctx option -> int -> unit
(** Add to the innermost open span's [rows_in]. Like
    {!observe_partitions}, it touches a span-only field: counters can reach
    a span only through {!charge}. *)

val observe_partitions : ctx option -> int array -> unit
(** Record one stage's per-partition output bytes (feeds max/sum/count)
    on the innermost open span. *)

val group : op:string -> stage:string -> span list -> span
(** Synthetic parent span (zero own metrics) over existing spans — used by
    {!Trance.Api} to group one step's assignment spans. *)

val without_wall : span -> span
(** The span tree with every [wall_seconds] zeroed: the deterministic
    part, which must be bit-identical across {!Config.t.domains}
    settings (wall-clock is real time and varies run to run). *)

(** {2 Rendering} *)

val pp_tree : Format.formatter -> span -> unit
(** Indented per-operator tree with inclusive metrics per line. *)

val json : span -> Json.t
(** The span tree as an object: [{"id", "op", "stage", "strategy",
    "metrics" (exclusive), "total" (inclusive), "children"}]; each metrics
    object is {!Stats.json_fields} plus [rows_in], [rows_out],
    [max_partition_bytes], [mean_partition_bytes] and [load_imbalance]. *)
