(** Per-partition row code: one kernel per plan operator, run by the
    single-node interpreter ({!Local_eval}) on its one partition and by the
    distributed executor in each pool task.

    Every kernel returns {!sized} rows: the rows plus the sum of
    {!Row.byte_size} over them. Where the size model's additivity allows,
    the sum is derived from the inputs instead of walking the output (a
    joined row is the sum of its sides, an unnested row its parent plus
    one column, a product from both sides' carried sizes). *)

type sized = Row.t array * int

val hash_key : Nrc.Value.t list -> int
(** Hash over an evaluated key tuple; decides partition assignment as
    [hash_key kv mod partitions] for shuffles and for
    [Exec.Dataset.of_bag_by] alike, which a join skipping its shuffle on
    a partitioning guarantee relies on. Never negative. *)

module KeyTbl : Hashtbl.S with type key = Nrc.Value.t list
(** Tables over evaluated key tuples, by {!hash_key} and [Value.equal] —
    so key equality is order-sensitive on bags, and [Value.hash] ignoring
    bag order only makes permutations collide. *)

val eval_keys : Row.t -> Sexpr.t list -> Nrc.Value.t list

val row_sizer : unit -> Row.t -> int
(** A fresh {!Row.byte_size} that reuses a column's size when the previous
    row held the physically same value there. *)

val sized : Row.t array -> sized

type index = Row.t list ref KeyTbl.t
(** A join's build side: non-null right keys to their rows. *)

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

val align : string list -> Row.t array -> sized
(** Restrict to the columns in order, missing ones Null (union branches). *)

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
(** Gamma-union (see {!Op.NestBag}). *)

val nest_sum :
  keys:(string * Sexpr.t) list ->
  agg_keys:(string * Sexpr.t) list ->
  aggs:(string * Sexpr.t) list ->
  presence:Sexpr.t ->
  Row.t array ->
  sized
(** Gamma-plus (see {!Op.NestSum}); Null aggregands count as 0. *)
