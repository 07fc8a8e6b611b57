(** Type checker for NRC and its shredding extension NRC^{Lbl} (labels and
    materialized-dictionary lookups), implementing the typing
    discipline of Figure 1 with the paper's restrictions: [dedup] takes a
    flat bag, [groupBy]/[sumBy] keys are flat, bags never contain bags. *)

exception Type_error of string

module Env : Map.S with type key = string

type env = Types.t Env.t

val env_of_list : (string * Types.t) list -> env

val infer : env -> Expr.t -> Types.t
(** Infer the type of an expression (labels and [MatLookup] allowed).
    @raise Type_error on ill-typed input. *)

val check_label_free : Expr.t -> unit
(** @raise Type_error if the expression uses shredding constructs. *)

val check_source : env -> Expr.t -> Types.t
(** [check_label_free] followed by [infer]: the entry point for user-facing
    source programs. *)
