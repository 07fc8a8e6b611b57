(** Per-partition row code: one kernel per plan operator, run by the
    single-node interpreter ({!Local_eval}) on its one partition and by the
    distributed executor in each pool task.

    {b Schemas.} Rows are bare value arrays ({!Row.t}); the column names
    travel beside them, one array per set of rows. A kernel is applied to
    its input's names once per operator, returning its output's names and
    the function it runs on each partition. Every column is resolved to
    its slot there, once ({!Sexpr.compile}), so no row is checked against
    a schema and the compiled readers, holding no state, serve every
    partition and pool task; a partition function makes its own scratch
    state per call, except that the nest kernels borrow theirs from their
    domain (below). Column order is part of a schema but not of its
    meaning: only {!align} and {!pack} fix it.

    {b Row sizes.} Rows travel {!sized}: beside each row array, one
    unboxed [int] per row, its {!Row.byte_size}, which every kernel takes
    for its input and returns for its output; {!Row} and {!Nrc.Value}
    own the size model. A kept row keeps its size, a joined or product
    row is the sum of its sides, an indexed row adds an int column, and
    an unnested row is the input row less the dropped bag (sized from
    the items, walked for their own rows) plus its item. Every other
    output — a projection, a union alignment, a nest's keys and items, a
    cogroup's keys and its item over the right side — goes through one
    sizer: an output that is a whole input column, a tuple of some
    fields of one or a tuple of whole columns carries them, and the
    carried columns are the input row's size less the rest when those
    are flat, unless the carried ones are flat and no more, when they
    are summed. Any other output is walked, reusing a slot's size while
    consecutive outputs hold physically the same value there, so the
    executor never sizes a row it did not just build. Every row or value
    array a kernel returns is built from a static filler
    ({!Row.array_init}), so no output, however long, forces a minor
    collection.

    {b Keys.} Every keyed kernel finds keys through one {!Key_table} from
    a key's hash — {!hash_key}'s fold — to positions, comparing keys in
    place by [Value.equal] (tried after physical equality and the
    [Int]/[Str] cases): a join's build rows, whose keys it stores back to
    back with a next-row chain in build order; dedup's rows; a nest's
    groups; a {!key_set}'s keys. Key equality is order-sensitive on bags,
    and [Value.hash] ignoring bag order only makes permutations collide.

    {b Nesting by row id.} The nest kernels group in one pass: each row's
    probed keys fill one reusable probe array, hashed once with
    {!hash_key}'s fold and looked up once (a present row with
    aggregation keys probes the G-key table only when it starts an
    aggregation group). Given the facts {!Op.ids} of their input, they
    probe by {!Op.probe_keys}: an id among the G-keys stands for the keys
    it determines. The probe holds only the keys the tables compare; the
    others are read only when a row opens a group, from that row straight
    into the group's new output row. Groups live in growable arrays, a
    G-group's aggregation groups chained by position; a group's value
    array is its output row, which aggregates accumulate into as rows
    stream, and the output is allocated at the exact count of rows
    emitted. Run as a map-side combine and a reduce, Γ+ hashes each key
    once: the combine returns each partial row's shuffle hash
    ({!nest_sum_combine}), and the reduce probes with it
    ({!nest_sum_reduce}). When some G-keys go unprobed, the combine hashes
    a G-group's keys when it opens, through a memo per call and per key
    slot of the last value there (compared physically) and its
    [Value.hash], seeded with [Null]'s: groups opened by sibling rows
    share their ancestors' values, so most of those keys are not hashed
    again.

    {b Borrowed scratch.} The two key tables, the two group stores and
    the probe array of that pass belong to the domain, not to the call,
    so a partition of a few hundred rows leaves no grown table behind in
    the major heap. Three rules hold: a domain lends them to one
    partition call at a time (a call made while they are lent gets its
    own); a call resets them in time proportional to its rows, replacing
    a table or store far larger than they can need; and a call keeps no
    reference to a value of its rows once it returns or raises. *)

type sized = Row.t array * int array
(** Rows and each row's {!Row.byte_size}, position by position. *)

type names = string array
(** A schema: the column names of a set of rows. *)

val total : int array -> int
(** The sum of a partition's row sizes. *)

val hash_key : Nrc.Value.t list -> int
(** Hash over an evaluated key tuple; decides partition assignment as
    [hash_key kv mod partitions] for shuffles and for
    [Exec.Dataset.of_bag_by] alike, which a join skipping its shuffle on
    a partitioning guarantee relies on. Never negative. *)

val key_hasher : Sexpr.t list -> names -> Row.t -> int
(** [key_hasher keys names row] is [hash_key] of [keys] evaluated over
    [row], by the same fold over its key vector, with no list built. *)

val sized : Row.t array -> sized
(** Rows with their sizes, walked. *)

val add_index : col:string -> names -> names * ((int -> int) -> sized -> sized)
(** Append the column [col] holding [Int (id i)] to the [i]-th row; [id]
    is called in row order. *)

type key_set
(** A set of key vectors of one width. *)

val key_count : key_set -> int

val heavy_keys :
  sample:int -> threshold:float -> Sexpr.t list -> names -> Row.t array array -> key_set
(** The skew sampler (Section 5): in each partition of [n] rows, every
    [max 1 (n / min n sample)]-th row from the first; a key is heavy when
    at least [threshold] of its partition's sampled rows, and at least
    two, hold it. *)

val split_by_keys : Sexpr.t list -> names -> key_set -> sized -> sized * sized
(** Rows whose key is not / is in the set: light and heavy sides. *)

type index
(** A join's build side: its rows and sizes, and the non-null right keys
    to their rows, in build order. *)

val index : Sexpr.t list -> names -> sized -> index
(** [index rkey rnames]: the build side's indexer over rows of [rnames]. *)

val join :
  lkey:Sexpr.t list -> kind:Op.join_kind -> names -> names -> names * (index -> sized -> sized)
(** [join ~lkey ~kind lnames rnames]: probe each left row, its matches in
    build order, each joined row the left values then the right ones: a
    null key matches nothing, and a left-outer miss joins one all-null
    row as wide as [rnames]. *)

val cogroup :
  lkey:Sexpr.t list ->
  kind:Op.join_kind ->
  keys:(string * Sexpr.t) list ->
  item:Sexpr.t ->
  presence:Sexpr.t ->
  out:string ->
  names ->
  names ->
  names * (index -> sized -> sized)
(** Join then nest fused: one row per left row that joins, its [keys] plus
    the bag [out] of [item] over its present matches. [presence] and
    [item] read a match's two sides in place ({!Sexpr.compile_pair}). *)

val product : names -> names -> names * (sized -> sized -> sized)
(** Every left row with every right row. *)

val select : Sexpr.t -> names -> names * (sized -> sized)
val project : (string * Sexpr.t) list -> names -> names * (sized -> sized)

val unnest :
  path:string list -> binder:string -> outer:bool -> drop:bool -> names ->
  names * (sized -> sized)
(** See {!Op.Unnest}. A dropped column is gone from the output schema,
    which so differs from {!Op.columns}. *)

val dedup : names -> names * (sized -> sized)
(** Keeps the first of equal rows (equal values, column by column), in
    input order, as {!Nrc.Value.dedup} does. *)

val align : names -> names -> names * (sized -> sized)
(** [align cols names]: restrict rows of [names] to the columns [cols] in
    order, missing ones Null (union branches). *)

val pack : names -> (Sexpr.t -> Sexpr.t option) * (sized -> sized)
(** [pack names]: rows of [names] as a stored dataset's rows, one column
    ["item"] holding each element of a result bag. Rows whose one column
    is ["item"] already are (scalars or pass-through tuples) and stay as
    they are; any other row becomes the tuple of its columns, named by
    [names] in order, sized as the row's size plus
    [Row.tuple_of_columns] of its width, with no walk. Beside it, a key
    over [names] as it reads the packed column, or [None] when it cannot
    (a key that is not a column). *)

val nest_bag :
  ids:Op.ids ->
  keys:(string * Sexpr.t) list ->
  agg_keys:(string * Sexpr.t) list ->
  item:Sexpr.t ->
  presence:Sexpr.t ->
  out:string ->
  names ->
  names * (sized -> sized)
(** Gamma-union (see {!Op.NestBag}) over rows with the facts [ids]. G-groups,
    and the aggregation groups within one, come out the most recently
    first-seen first; a bag holds its items in input order. *)

val nest_sum :
  ids:Op.ids ->
  keys:(string * Sexpr.t) list ->
  agg_keys:(string * Sexpr.t) list ->
  aggs:(string * Sexpr.t) list ->
  presence:Sexpr.t ->
  names ->
  names * (sized -> sized)
(** Gamma-plus (see {!Op.NestSum}), grouped and ordered as {!nest_bag};
    Null aggregands count as 0. Each sum folds [Nrc.Eval.add_values] from
    [Int 0] over its group's rows in input order. *)

val nest_sum_combine :
  ids:Op.ids ->
  keys:(string * Sexpr.t) list ->
  agg_keys:(string * Sexpr.t) list ->
  aggs:(string * Sexpr.t) list ->
  presence:Sexpr.t ->
  names ->
  names * (sized -> sized * int array)
(** {!nest_sum} as the map-side combine: its rows, and each row's shuffle
    hash, {!hash_key} of its G-keys, or of its aggregation keys when
    [keys] is empty (unused when both are: a global aggregate is
    gathered). When the pass probes every G-key, or there are none, its
    probe's fold already is that hash; otherwise it hashes each G-group's
    keys once, when the group opens. *)

val nest_sum_reduce :
  ids:Op.ids ->
  keys:(string * Sexpr.t) list ->
  agg_keys:(string * Sexpr.t) list ->
  aggs:(string * Sexpr.t) list ->
  presence:Sexpr.t ->
  names ->
  names * (int array -> sized -> sized)
(** {!nest_sum} as the reduce, over partial rows that arrive with their
    {!nest_sum_combine} hashes, position by position (unread when there
    are no keys): the G-key table probes with a row's hash, which equal
    probed keys give equal G-keys and so equal hashes, and the
    aggregation table folds only the aggregation keys onto it (with no
    G-keys, it probes with the hash itself). Rows, sizes and order are
    {!nest_sum}'s. *)
