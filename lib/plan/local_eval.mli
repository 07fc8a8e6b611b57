(** Single-node plan interpreter: runs a plan as one partition through the
    same {!Kernel} row code the distributed executor runs per partition, so
    comparing the two checks distribution (shuffles, partitioning
    guarantees, skew splits), while {!Nrc.Eval} stays the semantic
    oracle. *)

type env
(** Named datasets: one single-column row per bag item, sized once. *)

val env_of_list : (string * Nrc.Value.t) list -> env

val add : env -> string -> Nrc.Value.t -> unit
(** [add env name bag]: [bag]'s items as the dataset [name], replacing any. *)

val eval : env -> Op.t -> Kernel.names * Row.t array
(** The plan's rows, with their schema: its runtime columns, which differ
    from {!Op.columns} above an unnest that drops its bag column. *)

val eval_to_bag : env -> Op.t -> Nrc.Value.t
(** The result rows as a bag, packed as the executor stores a result
    ({!Kernel.pack}): a row's single column ["item"] is its element, any
    other row the tuple of its columns. *)
