(** The plan language of Section 2: selection, projection, (outer) join,
    (outer) unnest, nest, dedup, union — plus the ID-adding operator implied
    by outer-unnest and the [BagToDict] cast of the shredded route
    (Section 4).

    Rows are flat records ({!Row.t}): one values array per row over a
    schema of column names shared by the rows of one kernel call.
    Generator variables of the source NRC program become columns holding
    tuple values, so no renaming operators are needed (cf. Figure 3).

    The nest operators refine the paper's Gamma with an explicit split
    between the outer grouping attributes G ([keys]) and the aggregation key
    of the translated sumBy/groupBy ([agg_keys]), plus a [presence]
    predicate; see the field documentation. *)

type join_kind = Inner | LeftOuter

type t =
  | Nil of string list  (** empty dataset with the given columns *)
  | UnitRow  (** a single empty row; source for constant singletons *)
  | Scan of { input : string; binder : string }
      (** each element of the named dataset becomes a row [(binder, elem)] *)
  | Select of Sexpr.t * t
  | Project of (string * Sexpr.t) list * t
  | Join of {
      left : t;
      right : t;
      lkey : Sexpr.t list;
      rkey : Sexpr.t list;
      kind : join_kind;
    }
      (** equi-join; output rows concatenate both sides. [LeftOuter] pads
          unmatched left rows with Null right columns. Null keys never
          match. *)
  | Product of t * t  (** fallback for generators with no join predicate *)
  | Unnest of {
      input : t;
      path : string list;
      binder : string;
      outer : bool;
      drop : bool;
    }
      (** mu / outer-mu: pair each row with each element of the bag at
          [path], bound as [binder]; when [outer] and the bag is empty, one
          row with [binder] = Null. When [drop], the consumed bag attribute
          is projected away from the source column (the paper's mu "while
          projecting away a"); set by the optimizer when nothing downstream
          needs it. *)
  | AddIndex of { input : t; col : string }
      (** unique integer ID per row (Spark zipWithUniqueId); inserted before
          entering a nesting level (Section 3) *)
  | NestBag of {
      input : t;
      keys : (string * Sexpr.t) list;  (** the grouping-attribute set G *)
      agg_keys : (string * Sexpr.t) list;  (** groupBy key; [] = plain nest *)
      item : Sexpr.t;  (** the nested element, usually [MkTuple] *)
      presence : Sexpr.t;  (** boolean: does this row contribute an item? *)
      out : string;
    }
      (** Gamma-union. Rows with false [presence] keep their G-group alive
          (empty bag) without contributing; a G-group with no present rows
          and non-empty [agg_keys] emits one placeholder row with Null agg
          keys, which the enclosing nest casts to the empty bag — the
          NULL-casting rule of Section 2, compositional across levels. *)
  | NestSum of {
      input : t;
      keys : (string * Sexpr.t) list;
      agg_keys : (string * Sexpr.t) list;
      aggs : (string * Sexpr.t) list;  (** output name -> aggregand *)
      presence : Sexpr.t;
    }  (** Gamma-plus; Null aggregand values count as 0. *)
  | Dedup of t
  | UnionAll of t * t
  | BagToDict of { input : t; label : Sexpr.t }
      (** cast a bag to a dictionary keyed by [label]: logically the
          identity, but establishes the label partitioning guarantee during
          distributed execution (Section 4) *)
  | Cogroup of {
      left : t;
      right : t;
      lkey : Sexpr.t list;
      rkey : Sexpr.t list;
      kind : join_kind;
      keys : (string * Sexpr.t) list;
      item : Sexpr.t;
      presence : Sexpr.t;
      out : string;
    }
      (** [NestBag] with no [agg_keys] over [Join], fused (Section 3,
          Optimization): one row per joining left row, its [keys] and the
          bag [out] of [item] over its present joined rows, built without
          the flattened intermediate. {!Optimize.cogroup} introduces it. *)

val name : t -> string
(** Constructor name of the root operator ("Join", "NestBag", ...): the
    stable operator identifier used by execution-trace spans. *)

val columns : t -> string list
(** Output column names. Rows are read by name, so only union alignment
    and result packaging follow this order; a kernel may build its rows'
    columns in another. *)

val inputs : t -> string list
(** Datasets scanned (with duplicates). *)

val children : t -> t list
(** Direct inputs, left before right. *)

val map_children : (t -> t) -> t -> t
(** Rebuild the root operator over [f] applied to each direct input; every
    other field is kept. [children (map_children f op)] is
    [List.map f (children op)]. *)

type ids = {
  unique : string list;  (** columns holding a different value in every row *)
  determines : (string * string list) list;
      (** [(id, cols)]: rows equal in column [id] are equal in every column
          of [cols] *)
}
(** What the ids of {!AddIndex} tell about an operator's output rows. An
    AddIndex column is unique per row and determines every column of its
    input. Uniqueness survives only selections, projections (and the
    row-preserving [Dedup] and [BagToDict]) and a cogroup's keys, which
    hold one row per left row; a nest without aggregation keys, one row
    per G-group, makes unique a G-key id that determines all its other
    G-keys. Determination also survives
    unnests, a join's or product's left side, projections and the G
    columns of a nest or cogroup — where a field copying an id determines
    the fields that read only columns it determined. A column bound above
    an AddIndex (an unnest binder, a join's right side, a later id) is
    determined by none of its ids. Derived from the plan, never printed. *)

val no_ids : ids

val ids : t -> ids
(** The facts over the operator's output columns. *)

val probe_keys : ids -> (string * Sexpr.t) list -> bool array
(** Which of a grouping's [keys], over rows with these facts, it must hash
    and compare: an id among the keys (a plain column read) stands for
    every key that reads only the id and columns it determines, so those
    are left out — for the id that leaves out the most; all of them when
    no id leaves any out. Rows equal in the probed keys are equal in all
    of them. *)

val pp : Format.formatter -> t -> unit
(** Indented operator-tree rendering (cf. Figure 3). *)

val to_string : t -> string

val count : (t -> bool) -> t -> int
(** Number of operators satisfying the predicate (plan diagnostics). *)
