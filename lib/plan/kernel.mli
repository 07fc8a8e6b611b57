(** Per-partition row code: one kernel per plan operator, run by the
    single-node interpreter ({!Local_eval}) on its one partition and by the
    distributed executor in each pool task.

    {b Row sizes.} Rows travel {!sized}: beside each row array, one
    unboxed [int] per row, its {!Row.byte_size}. Every kernel takes its
    input rows' sizes and returns its output rows', each equal to
    {!Row.byte_size} of its row, derived from the size model's additivity
    wherever that saves walking values: a kept row keeps its size (select,
    dedup, a skew split); a joined or product row is the sum of its sides;
    an indexed row adds 16; an unnested row is its parent — the input
    row's size minus the dropped bag, itself the sum of the items the
    kernel sizes anyway — plus its item; a projected or aligned row, a
    nest's whole-column keys and a nest's item that is a tuple of whole
    columns are the input row less the columns they leave out, when
    those are flat (a projection narrowing a tuple column also less the
    fields it drops; a tuple item of fewer flat columns is walked
    directly), else the output is walked. A nest's keys that are
    computed are walked, reusing a slot's size while consecutive groups
    hold physically the same value there. Only values a kernel computes
    are walked, so the executor never sizes a row it did not just
    build.

    {b Key vectors.} Each call compiles its expressions afresh, several
    keys at once with {!Sexpr.compile_vec} — one schema check per row,
    not one per key — so a compiled closure never outlives the call or
    crosses a pool task. The rows a call builds share one interned
    [names] array per schema ({!Row.schema}), derived once when a row's
    schema differs from the last one seen ({!Row.by_schema}). Column
    order is part of a row's schema but not of its meaning: only {!align}
    and {!values} fix it. Every row or value array a kernel returns is
    built from a static filler ({!Row.array_init}), so no output, however
    long, forces a minor collection.

    {b Nesting by row id.} The nest kernels group in one pass: each row's
    probed keys fill one reusable probe array, hashed once with
    {!hash_key}'s fold and looked up once (a present row with
    aggregation keys probes the G-key table only when it starts an
    aggregation group). Given the facts {!Op.ids} of their input, they
    probe by {!Op.probe_keys}: an id among the G-keys stands for the keys
    it determines, which are read only when a row opens a group. A
    group's value array is its output row, which aggregates accumulate
    into as rows stream. *)

type sized = Row.t array * int array
(** Rows and each row's {!Row.byte_size}, position by position. *)

val total : int array -> int
(** The sum of a partition's row sizes. *)

val hash_key : Nrc.Value.t list -> int
(** Hash over an evaluated key tuple; decides partition assignment as
    [hash_key kv mod partitions] for shuffles and for
    [Exec.Dataset.of_bag_by] alike, which a join skipping its shuffle on
    a partitioning guarantee relies on. Never negative. *)

val key_hasher : Sexpr.t list -> Row.t -> int
(** [key_hasher keys row] is [hash_key] of [keys] evaluated over [row],
    by the same fold over its key vector, with no list built. One per
    task or call, as {!Sexpr.compile}. *)

module KeyTbl : Hashtbl.S with type key = Nrc.Value.t array
(** Tables over evaluated key vectors, hashed by {!hash_key}'s fold and
    compared by [Value.equal] (tried after physical equality and the
    [Int]/[Str] cases) — so key equality is order-sensitive on bags, and
    [Value.hash] ignoring bag order only makes permutations collide. The
    nest kernels' tables use the same hash and equality. *)

val compile_keys : Sexpr.t list -> Row.t -> Nrc.Value.t array
(** A key vector's evaluator, compiled as {!Sexpr.compile_vec} is: one
    per task or call. *)

val sized : Row.t array -> sized
(** Rows with their sizes, walked. *)

val scan : binder:string -> Nrc.Value.t array -> sized
(** One single-column row [binder] per item. *)

val add_index : col:string -> (int -> int) -> sized -> sized
(** Append the column [col] holding [Int (id i)] to the [i]-th row; [id]
    is called in row order. *)

type index
(** A join's build side: its rows and sizes, and the non-null right keys
    to their rows, in build order. *)

val index : Sexpr.t list -> sized -> index

val join :
  lkey:Sexpr.t list -> kind:Op.join_kind -> rcols:string list -> index ->
  sized -> sized
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
  sized ->
  sized
(** Join then nest fused: one row per left row that joins, its [keys] plus
    the bag [out] of [item] over its present joined rows. *)

val product : sized -> sized -> sized
(** Every left row with every right row. *)

val select : Sexpr.t -> sized -> sized
val project : (string * Sexpr.t) list -> sized -> sized

val unnest :
  path:string list -> binder:string -> outer:bool -> drop:bool -> sized -> sized
(** See {!Op.Unnest}. *)

val dedup : sized -> sized
(** Keeps the first of equal rows (the same columns in order and equal
    values), in input order, as {!Nrc.Value.dedup} does. *)

val align : string list -> sized -> sized
(** Restrict to the columns in order, missing ones Null (union branches). *)

val values : string list -> Row.t array -> Nrc.Value.t array
(** Rows as the elements of a result bag over the plan columns [cols]: a
    tuple of those columns, missing ones Null — except that the reserved
    single column ["item"] marks rows carrying whole bag elements (scalars
    or pass-through tuples), which are unwrapped. *)

val split_by_keys : Sexpr.t list -> unit KeyTbl.t -> sized -> sized * sized
(** Rows whose key is not / is in the set: light and heavy sides. *)

val nest_bag :
  ids:Op.ids ->
  keys:(string * Sexpr.t) list ->
  agg_keys:(string * Sexpr.t) list ->
  item:Sexpr.t ->
  presence:Sexpr.t ->
  out:string ->
  sized ->
  sized
(** Gamma-union (see {!Op.NestBag}) over rows with the facts [ids]. G-groups,
    and the aggregation groups within one, come out the most recently
    first-seen first; a bag holds its items in input order. Applied to
    all but the rows once per operator, it derives its probe once and
    shares it, read-only, with every partition's call. *)

val nest_sum :
  ids:Op.ids ->
  keys:(string * Sexpr.t) list ->
  agg_keys:(string * Sexpr.t) list ->
  aggs:(string * Sexpr.t) list ->
  presence:Sexpr.t ->
  sized ->
  sized
(** Gamma-plus (see {!Op.NestSum}), grouped and ordered as {!nest_bag};
    Null aggregands count as 0. Each sum folds [Nrc.Eval.add_values] from
    [Int 0] over its group's rows in input order. *)
