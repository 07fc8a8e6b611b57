(** Scalar expressions evaluated per row inside plan operators (selections,
    projections, join keys, nest keys and aggregands).

    An expression runs only compiled: {!compile} turns it into a closure
    over the rows of one schema that reads values by position; a kernel
    compiles its expressions once per operator, over its input's schema,
    and shares the closures with every partition. A tuple built only of
    fields [n := c.n] of one column [c] keeps the pairs of the tuple in
    [c], allocating just the list that holds them.

    Null semantics mirror the paper's outer operators: projecting through a
    Null tuple yields Null; primitives, comparisons and conditionals with a
    Null operand (or condition) yield Null; selections treat Null as false; {!Op.NestSum} casts Null
    aggregands to 0. A division by zero raises [Nrc.Eval.Eval_error] naming
    the expression, as {!Nrc.Eval} does. *)

type t =
  | Col of string list  (** column name followed by tuple-field path *)
  | Const of Nrc.Value.t
  | Prim of Nrc.Expr.prim * t * t
  | Cmp of Nrc.Expr.cmp * t * t
  | Logic of Nrc.Expr.logic * t * t
  | Not of t
  | IsNull of t
  | If of t * t * t
      (** scalar conditional: the first branch on true, the second on
          false, Null on a Null condition *)
  | MkLabel of { site : int; args : t list }
  | LabelArg of t * int
      (** extract the i-th captured value of a label (Null when out of
          range, e.g. on a foreign-site label filtered by {!IsLabelSite}) *)
  | IsLabelSite of t * int  (** was the label created by this site? *)
  | MkTuple of (string * t) list  (** build a tuple value *)

val col : string -> t
val path : string -> string list -> t

type reader = Row.t -> Nrc.Value.t

val compile : string array -> t -> reader
(** [compile names e] is [e]'s evaluator over rows of the schema [names]:
    each column is resolved to its slot here, once, so the reader reads
    values by position and checks nothing per row. Readers hold no state,
    so one compile serves every partition and pool task.
    @raise Invalid_argument when [names] lacks a column of [e]. *)

val compile_vec : string array -> t list -> reader array
(** {!compile} of each expression, position by position (a key vector). *)

val truth : Nrc.Value.t -> bool
(** Truthiness for selections: Null counts as false.
    @raise Invalid_argument on a non-boolean. *)

val compile_pred : string array -> t -> Row.t -> bool
(** {!compile} with {!truth}. *)

type pair = { mutable left : Row.t; mutable right : Row.t }
(** The two sides of a joined row, not joined. *)

val pair : unit -> pair
(** A pair holding two empty rows; one per task, refilled per match. *)

val compile_pair : string array -> string array -> t -> pair -> Nrc.Value.t
(** [compile_pair lnames rnames e]: [e] over the row joining a left row of
    [lnames] to a right row of [rnames] — the schema [lnames] followed by
    [rnames] — read from its two sides, so no joined row is built.
    @raise Invalid_argument when both lack a column of [e]. *)

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
