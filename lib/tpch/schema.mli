(** TPC-H-derived schema used by the micro-benchmark (Section 6): the level
    hierarchy Lineitem -> Orders -> Customer -> Nation -> Region plus the
    flat Part relation joined at the lowest level. This module is the one
    description of that hierarchy: {!Queries} and {!Generator} both walk
    {!levels}. *)

val lineitem_ty : Nrc.Types.t
val part_ty : Nrc.Types.t

type level_info = {
  entity : string;  (** dataset name of the flat input *)
  pk : string;
      (** primary key attribute, an int; the child's FK has the same name *)
  narrow_attr : string;  (** the one attribute narrow queries keep *)
  wide_attrs : string list;  (** all payload attributes (wide variant) *)
  nested_attr : string;  (** name of the nested collection in outputs *)
}

val levels : level_info array
(** [levels.(0)] is Orders (children: lineitems) ... [levels.(3)] Region. *)

val leaf_attrs : wide:bool -> string list
(** The lineitem attributes kept at the leaf: (pkey, lqty), or all but
    okey when [wide]. *)

val level_attrs : wide:bool -> level_info -> string list
(** The attributes kept at one level: [narrow_attr], or [wide_attrs] when
    [wide]. *)

val flat_inputs_ty : (string * Nrc.Types.t) list
