(** Reference interpreter for NRC and the NRC^{Lbl} programs (labels and
    materialized-dictionary lookups) produced by materialization: the
    semantic oracle that the unnesting, shredding, and distributed execution
    routes are tested against. *)

exception Eval_error of string

module Env : Map.S with type key = string

type env = Value.t Env.t

val env_of_list : (string * Value.t) list -> env

val eval_prim : Expr.prim -> Value.t -> Value.t -> Value.t
(** Arithmetic with int/real promotion.
    @raise Division_by_zero on a zero divisor, int or real; {!eval} and
    the plans' compiled expressions fail with {!Eval_error} naming the
    expression instead. *)

val eval_cmp : Expr.cmp -> Value.t -> Value.t -> Value.t

val add_values : Value.t -> Value.t -> Value.t
(** The commutative monoid used by [sumBy] / Gamma-plus. *)

val eval : env -> Expr.t -> Value.t
(** @raise Eval_error on unbound variables, type confusion or a division
    by zero. *)

val eval_program : env -> (string * Expr.t) list -> env
(** Evaluate assignments in order, extending the environment. *)
