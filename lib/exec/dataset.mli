(** Partitioned datasets of the cluster simulator: an array of partitions
    of values (top-level tuples — the granularity at which Spark
    distributes collections) plus an optional partitioning guarantee. The
    guarantee lets the executor skip shuffles exactly where Spark's
    partitioner would (Section 3, "Operators effect the partitioning
    guarantee"). *)

type t = {
  parts : Nrc.Value.t array array;
  key : string list list option;
      (** field paths into each element; [Some paths] means all elements
          with equal key values share a partition *)
}

val partition_count : t -> int
val total_rows : t -> int

val of_bag : partitions:int -> Nrc.Value.t -> t
(** Round-robin distribution, no guarantee (freshly loaded data). *)

val of_bag_by : partitions:int -> key:string list list -> Nrc.Value.t -> t
(** Hash distribution by field paths; establishes the guarantee. Each
    element goes to partition [Plan.Kernel.hash_key kv mod partitions],
    where a shuffle on the same key would send it. Used to load
    dictionaries with their label partitioning (Section 4). *)

val to_bag : t -> Nrc.Value.t
