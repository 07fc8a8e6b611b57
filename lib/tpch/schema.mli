(** TPC-H-derived schema used by the micro-benchmark (Section 6): the level
    hierarchy Lineitem -> Orders -> Customer -> Nation -> Region plus the
    flat Part relation joined at the lowest level. *)

val region_ty : Nrc.Types.t
val nation_ty : Nrc.Types.t
val customer_ty : Nrc.Types.t
val orders_ty : Nrc.Types.t
val lineitem_ty : Nrc.Types.t
val part_ty : Nrc.Types.t

type level_info = {
  entity : string;  (** dataset name of the flat input *)
  pk : string;  (** primary key attribute (same name as the child's FK) *)
  fk_down : string;
  narrow_attr : string;  (** the one attribute narrow queries keep *)
  wide_attrs : string list;  (** all payload attributes (wide variant) *)
  nested_attr : string;  (** name of the nested collection in outputs *)
}

val levels : level_info array
(** [levels.(0)] is Orders (children: lineitems) ... [levels.(3)] Region. *)

val leaf_attrs_narrow : string list
val leaf_attrs_wide : string list
val flat_inputs_ty : (string * Nrc.Types.t) list
