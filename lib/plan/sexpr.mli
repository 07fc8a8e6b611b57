(** Scalar expressions evaluated per row inside plan operators (selections,
    projections, join keys, nest keys and aggregands).

    An expression runs only compiled: {!compile} turns it into a closure
    over rows that resolves each column to its slot once per row schema
    ({!Row.by_schema}) and then reads values by position; {!compile_vec}
    does so for a list of expressions at once (a row's key vector). A kernel compiles
    its expressions once per call; a compiled closure holds a mutable memo,
    so it is never shared between pool tasks.

    Null semantics mirror the paper's outer operators: projecting through a
    Null tuple yields Null; primitives and comparisons with a Null operand
    yield Null; selections treat Null as false; {!Op.NestSum} casts Null
    aggregands to 0. *)

type t =
  | Col of string list  (** column name followed by tuple-field path *)
  | Const of Nrc.Value.t
  | Prim of Nrc.Expr.prim * t * t
  | Cmp of Nrc.Expr.cmp * t * t
  | Logic of Nrc.Expr.logic * t * t
  | Not of t
  | IsNull of t
  | MkLabel of { site : int; args : t list }
  | LabelArg of t * int
      (** extract the i-th captured value of a label (Null when out of
          range, e.g. on a foreign-site label filtered by {!IsLabelSite}) *)
  | IsLabelSite of t * int  (** was the label created by this site? *)
  | MkTuple of (string * t) list  (** build a tuple value *)

val col : string -> t
val path : string -> string list -> t

val compile : t -> Row.t -> Nrc.Value.t
(** [compile e] is [e]'s evaluator. Partially apply it once and run the
    result over many rows.
    @raise Invalid_argument when applied to a row lacking a column of [e]. *)

type reader = Nrc.Value.t array -> Nrc.Value.t
(** An expression specialized to one schema: it reads a row's [vals] by
    position. *)

val compile_vec : t list -> Row.t -> reader array
(** [compile_vec es] resolves all of [es] at once: applied to a row, it
    returns their readers for the row's schema, position by position, at
    the cost of one {!Row.by_schema} check — not one per expression, as
    separate {!compile}s would pay. Apply reader [i] to the row's [vals]
    to evaluate [es]'s [i]-th expression, and only those a caller needs.
    Partially apply it once per kernel call, as {!compile}.
    @raise Invalid_argument when applied to a row lacking a column. *)

val compile_pred : t -> Row.t -> bool
(** {!compile} with truthiness for selections: Null counts as false. *)

val uses : t -> (string * string list) list
(** (column, field path) of every column reference, in order (for pushdown
    analyses). *)

val cols_used : t -> string list
(** The columns of {!uses}. *)

val conj : t list -> t
(** [conj [a; b; c]] is [(a && b) && c]; [conj []] is [true]. *)

val conjuncts : t -> t list
(** The inverse of {!conj}: the operands of nested [&&], left to right. *)

val reads_only : string list -> t list -> bool
(** [reads_only cols exprs]: every column the [exprs] reference is in
    [cols], so they can be evaluated over rows with just those columns. *)

val pp : Format.formatter -> t -> unit
