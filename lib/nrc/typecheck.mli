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

val check_source : env -> Expr.t -> Types.t
(** {!infer} for user-facing source programs: the entry point that also
    rejects the shredding constructs (labels and [MatLookup]).
    @raise Type_error on ill-typed input or a shredding construct. *)
