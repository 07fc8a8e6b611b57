(** Plan optimizations of Section 3: selection pushdown, column pruning
    (projection pushdown to scans + mu-consumption of unnested attributes),
    and aggregation pushdown past joins against relations with a declared
    unique key. All rewrites are validated against {!Local_eval} in the
    test suite. *)

type config = {
  push_selects : bool;
  prune_columns : bool;
  push_aggs : bool;
  unique_keys : (string * string list) list;
      (** [(input, fields)]: the named input is uniquely keyed by [fields]
          (e.g. [("Part", ["pkey"])]); licenses aggregation pushdown across
          a join against it (Example 2). *)
}

val default : config
(** Everything on, no uniqueness hints. *)

val none : config
(** Everything off (for ablations and plan-shape tests). *)

val prune_columns : Op.t -> Op.t
(** Demand analysis: narrow scans of tuples to their used fields and mark
    unnests whose consumed attribute is dead as dropping. *)

val push_select : Op.t -> Op.t
(** Push selections below joins, products, and non-outer unnests whose
    columns allow it; fuse adjacent selections. *)

val push_agg : (string * string list) list -> Op.t -> Op.t
(** Gamma-plus over a join against a unique-keyed scan: pre-aggregate the
    left side grouped by (left keys + join key), join, then combine. *)

val cogroup : Op.t -> Op.t
(** Fuse each Gamma-union with no [agg_keys] directly over a join into an
    {!Op.Cogroup} (Section 3, Optimization), where that is safe: a nest
    key reads a column unique on the join's left input ({!Op.ids}) and the
    keys read only the left side, as does the left join key, so each group
    is one left row.
    Idempotent; a separate pass run after {!optimize}. *)

val optimize : ?config:config -> Op.t -> Op.t
