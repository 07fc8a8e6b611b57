(** Partitioned data of the cluster simulator, the one type from the
    loader through every operator to the collected answer.

    A dataset is a set of rows ({!Plan.Row.t}) partition by partition,
    under one schema, each row beside the {!Plan.Row.byte_size} that the
    kernel or loader which built it returned — never re-walked — plus an
    optional partitioning guarantee over its columns. The guarantee lets
    the executor skip shuffles exactly where Spark's partitioner would
    (Section 3, "Operators effect the partitioning guarantee").

    A {e stored} dataset — a loaded input, or an assignment's result that
    later assignments scan — has the single column ["item"] holding each
    element of its bag (a top-level tuple: the granularity at which Spark
    distributes collections). Loading builds its rows and sizes once,
    pushing each element's row to its partition's {!Plan.Kernel.buf}
    ({!of_bag}, {!of_bag_by}, and {!Trance.Shred_value.place}'s chunks);
    {!Executor.run_plan} packs a plan's rows into it once
    ({!Plan.Kernel.pack}); a [Scan] only renames the column to its
    binder. *)

type t = {
  names : Plan.Kernel.names;
      (** the schema of every row of every partition, empty ones included *)
  parts : Plan.Row.t array array;
  sizes : int array array;  (** each row's size, beside its partition *)
  bytes : int array;  (** the sizes summed per partition *)
  key : Plan.Sexpr.t list option;
      (** [Some keys]: all rows whose [keys] are equal share a partition *)
  skew : (Plan.Sexpr.t list * Plan.Kernel.key_set) option;
      (** heavy keys of a skew-triple, carried between operators until
          something alters the key (Section 5) *)
}

val make :
  ?key:Plan.Sexpr.t list option ->
  ?skew:(Plan.Sexpr.t list * Plan.Kernel.key_set) option ->
  Plan.Kernel.names ->
  Plan.Kernel.sized array ->
  t
(** The partitions, each with its rows' sizes, under one schema. *)

val partition_count : t -> int
val total_rows : t -> int

val of_bag : partitions:int -> Nrc.Value.t -> t
(** A stored dataset, element [i] in partition [i mod partitions], no
    guarantee (freshly loaded data). *)

val of_bag_by : partitions:int -> key:Plan.Sexpr.t list -> Nrc.Value.t -> t
(** A stored dataset hash-partitioned by [key], expressions over the column
    ["item"]: each element goes to partition
    [Plan.Kernel.hash_key kv mod partitions], where a shuffle on the same
    key would send it, and the guarantee holds. *)

val to_bag : t -> Nrc.Value.t
(** The bag of column 0, in partition order: a stored dataset's elements. *)
