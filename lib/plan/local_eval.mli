(** Single-node plan interpreter: runs a plan as one partition through the
    same {!Kernel} row code the distributed executor runs per partition, so
    comparing the two checks distribution (shuffles, partitioning
    guarantees, skew splits), while {!Nrc.Eval} stays the semantic
    oracle. *)

type env = (string, Nrc.Value.t list) Hashtbl.t
(** Named datasets: bag items per input name. *)

val env_of_list : (string * Nrc.Value.t) list -> env
val lookup : env -> string -> Nrc.Value.t list
val eval : env -> Op.t -> Kernel.names * Row.t array
(** The plan's rows, with their schema: its runtime columns, which differ
    from {!Op.columns} above an unnest that drops its bag column. *)

val eval_to_bag : env -> Op.t -> Nrc.Value.t
(** Package result rows as a bag of tuples named by the plan's columns; the
    reserved single column ["item"] is unwrapped to the bare element. *)
