(** Spark code generation (Section 3): render plans as the Scala /
    Spark-Dataset programs the paper's system emits — one [val] per
    operator, [explode]/[explode_outer] for unnests,
    [monotonically_increasing_id] for unique IDs, [groupBy] +
    [collect_list]/[sum(when(...))] for the Gamma operators,
    [groupByKey(...).cogroup(...)] for a cogroup, [repartition($"label")]
    for BagToDict. Inspectable output only; the
    simulator executes the plans (DESIGN.md substitution table). *)

val plan_to_scala : name:string -> Plan.Op.t -> string
val assignments_to_scala : (string * Plan.Op.t) list -> string
