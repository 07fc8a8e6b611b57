(** Per-partition row code: one kernel per plan operator, run by the
    single-node interpreter ({!Local_eval}) on its one partition and by the
    distributed executor in each pool task.

    Every kernel returns {!sized} rows: the rows plus the sum of
    {!Row.byte_size} over them. Where the size model's additivity allows,
    the sum is derived from the inputs instead of walking the output (a
    joined row is the sum of its sides, an unnested row its parent plus
    one column, a product from both sides' carried sizes).

    Each call compiles its expressions ({!Sexpr.compile}) afresh, so a
    compiled closure never outlives the call or crosses a pool task. The
    rows a call builds share one [names] array per input schema: an
    output schema is derived once, when a row's schema differs from the
    last one seen ({!Row.by_schema}). Column order is part of a row's
    schema but not of its meaning: only {!align} and {!values} fix it.

    The nest kernels group in one pass: each row's keys fill one reusable
    probe array, hashed once with {!hash_key}'s fold and looked up once (a
    present row with aggregation keys probes the G-key table only when it
    starts an aggregation group). A group's value array is its output row,
    which aggregates accumulate into as rows stream. *)

type sized = Row.t array * int

val hash_key : Nrc.Value.t list -> int
(** Hash over an evaluated key tuple; decides partition assignment as
    [hash_key kv mod partitions] for shuffles and for
    [Exec.Dataset.of_bag_by] alike, which a join skipping its shuffle on
    a partitioning guarantee relies on. Never negative. *)

module KeyTbl : Hashtbl.S with type key = Nrc.Value.t list
(** Tables over evaluated key tuples, by {!hash_key} and [Value.equal]
    (tried after physical equality and the [Int]/[Str] cases) — so key
    equality is order-sensitive on bags, and [Value.hash] ignoring bag
    order only makes permutations collide. The nest kernels' tables use
    the same hash and equality. *)

val compile_keys : Sexpr.t list -> Row.t -> Nrc.Value.t list
(** A key tuple's evaluator, compiled as {!Sexpr.compile} is: one per
    task or call. *)

val row_sizer : unit -> Row.t -> int
(** A fresh {!Row.byte_size} that reuses a slot's size when the previous
    row held the physically same value there; allocates nothing per row. *)

val sized : Row.t array -> sized

val scan : binder:string -> Nrc.Value.t array -> sized
(** One single-column row [binder] per item. *)

val add_index : col:string -> (int -> int) -> Row.t array -> Row.t array
(** Append the column [col] holding [Int (id i)] to the [i]-th row; [id]
    is called in row order. *)

type index = Row.t list ref KeyTbl.t
(** A join's build side: non-null right keys to their rows, in build
    order. *)

val index : Sexpr.t list -> Row.t array -> index

val join :
  lkey:Sexpr.t list -> kind:Op.join_kind -> rcols:string list -> index ->
  Row.t array -> sized
(** Probe each left row, its matches in build order: a null key matches
    nothing, and a left-outer miss joins one all-null row over [rcols]. *)

val cogroup :
  lkey:Sexpr.t list ->
  kind:Op.join_kind ->
  rcols:string list ->
  keys:(string * Sexpr.t) list ->
  item:Sexpr.t ->
  presence:Sexpr.t ->
  out:string ->
  index ->
  Row.t array ->
  sized
(** Join then nest fused: one row per left row that joins, its [keys] plus
    the bag [out] of [item] over its present joined rows. *)

val product : sized -> sized -> sized
(** Every left row with every right row, sized from both sides' sums. *)

val select : Sexpr.t -> Row.t array -> sized
val project : (string * Sexpr.t) list -> Row.t array -> sized

val unnest :
  path:string list -> binder:string -> outer:bool -> drop:bool ->
  Row.t array -> sized
(** See {!Op.Unnest}. *)

val dedup : Row.t array -> sized
(** Keeps the first of equal rows (the same columns in order and equal
    values), in input order, as {!Nrc.Value.dedup} does. *)

val align : string list -> Row.t array -> sized
(** Restrict to the columns in order, missing ones Null (union branches). *)

val values : string list -> Row.t array -> Nrc.Value.t array
(** Rows as the elements of a result bag over the plan columns [cols]: a
    tuple of those columns, missing ones Null — except that the reserved
    single column ["item"] marks rows carrying whole bag elements (scalars
    or pass-through tuples), which are unwrapped. *)

val split_by_keys : Sexpr.t list -> unit KeyTbl.t -> sized -> sized * sized
(** Rows whose key is not / is in the set: light and heavy sides, the heavy
    one sized and the light one carrying the rest of the input's size. *)

val nest_bag :
  keys:(string * Sexpr.t) list ->
  agg_keys:(string * Sexpr.t) list ->
  item:Sexpr.t ->
  presence:Sexpr.t ->
  out:string ->
  Row.t array ->
  sized
(** Gamma-union (see {!Op.NestBag}). G-groups, and the aggregation groups
    within one, come out the most recently first-seen first; a bag holds
    its items in input order. *)

val nest_sum :
  keys:(string * Sexpr.t) list ->
  agg_keys:(string * Sexpr.t) list ->
  aggs:(string * Sexpr.t) list ->
  presence:Sexpr.t ->
  Row.t array ->
  sized
(** Gamma-plus (see {!Op.NestSum}), grouped and ordered as {!nest_bag};
    Null aggregands count as 0. Each sum folds [Nrc.Eval.add_values] from
    [Int 0] over its group's rows in input order. *)
