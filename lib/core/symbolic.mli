(** Symbolic query shredding (Section 4, Figure 4): the mutually recursive
    translation F / D from a source NRC expression to (a) a flat expression
    computing the top-level bag with labels in place of inner collections
    and (b) a dictionary tree describing how each label dereferences.

    Dictionary trees are structured values rather than lambda-bearing
    expressions: the paper's [let varD := D(e1) in ...] bindings are
    resolved eagerly through an environment, and [Lookup] on an
    already-materialized dictionary becomes [MatLookup] on its named flat
    dataset immediately — fusing Figure 5's normalization step into the
    translation. The Section 4 label refinement is implemented: labels
    capture only the used attribute paths of free variables, and a label
    that would capture exactly one label {e is} that label ([identity]). *)

type dtree =
  | DEmpty  (** scalar / flat contents: no dictionaries *)
  | DNode of (string * entry) list
      (** one entry per bag-valued attribute of a tuple *)
  | DRef of { dataset : string; path : string list; elem_ty : Nrc.Types.t }
      (** the dictionaries of an already-materialized dataset at a path;
          [elem_ty] is the original (nested) element type there *)
  | DUnion of dtree * dtree

and entry =
  | EAlias of dtree
      (** the output dictionary is exactly an existing one (label reuse) *)
  | ELams of { lams : lam list; child : dtree; item_ty : Nrc.Types.t }
      (** symbolic dictionary: one lambda per label site flowing in;
          [item_ty] is the flat type of the dictionary's items *)

and lam = {
  site : int;
  params : (string * Nrc.Types.t) list;
      (** captured values, in label-argument order *)
  body : Nrc.Expr.t;  (** flat bag expression over params + datasets *)
  identity : bool;
      (** the label is exactly the single captured label: the F side passes
          the inner label through unchanged *)
}

exception Unsupported_shredding of string

val union_dtree : dtree -> dtree -> dtree
(** Union of dictionary trees ([DEmpty] is the unit). *)

(** {2 Captured-path analysis} *)

module SSet : Set.S with type elt = string

type use = Whole | Attrs of SSet.t

val used_paths : SSet.t -> Nrc.Expr.t -> (string * use) list
(** How each bound variable is used: whole, or through which attributes. *)

(** {2 Entry point} *)

val shred_expr :
  registry:Registry.t ->
  dtenv:(string * Nrc.Types.t) list ->
  Nrc.Expr.t ->
  Nrc.Expr.t * dtree
(** Shred one assignment body against the dataset environment (original
    types). Returns F(e) and D(e).
    @raise Unsupported_shredding outside the supported fragment. *)
