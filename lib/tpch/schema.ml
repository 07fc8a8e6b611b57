(** TPC-H-derived schema used by the micro-benchmark (Section 6): the level
    hierarchy Lineitem -> Orders -> Customer -> Nation -> Region plus the
    flat Part relation joined at the lowest level.

    Each entity has a narrow attribute (the single attribute the narrow
    query variant keeps at that level) and a set of wide attributes
    (everything, including padded comment strings, for the wide variant). *)

module T = Nrc.Types
module V = Nrc.Value

let region_ty =
  T.bag
    (T.tuple
       [ ("rkey", T.int_); ("rname", T.string_); ("rcomment", T.string_) ])

let nation_ty =
  T.bag
    (T.tuple
       [
         ("nkey", T.int_); ("nname", T.string_); ("rkey", T.int_);
         ("ncomment", T.string_);
       ])

let customer_ty =
  T.bag
    (T.tuple
       [
         ("ckey", T.int_); ("cname", T.string_); ("nkey", T.int_);
         ("acctbal", T.real); ("mktsegment", T.string_);
         ("ccomment", T.string_);
       ])

let orders_ty =
  T.bag
    (T.tuple
       [
         ("okey", T.int_); ("ckey", T.int_); ("odate", T.date);
         ("ototal", T.real); ("opriority", T.string_);
         ("ocomment", T.string_);
       ])

let lineitem_ty =
  T.bag
    (T.tuple
       [
         ("okey", T.int_); ("pkey", T.int_); ("lqty", T.real);
         ("eprice", T.real); ("ldiscount", T.real); ("lcomment", T.string_);
       ])

let part_ty =
  T.bag
    (T.tuple
       [
         ("pkey", T.int_); ("pname", T.string_); ("pprice", T.real);
         ("brand", T.string_); ("pcomment", T.string_);
       ])

(** The hierarchy from the leaf upward. [parent_key]/[child_key] give the
    join columns linking a level to the one above it. *)
type level_info = {
  entity : string; (* dataset name of the flat input *)
  pk : string; (* primary key attribute *)
  fk_down : string; (* attribute of the CHILD entity referencing this pk *)
  narrow_attr : string; (* the single attribute kept by narrow queries *)
  wide_attrs : string list; (* all non-key payload attributes *)
  nested_attr : string; (* name of the nested collection in outputs *)
}

(* levels.(0) is Orders (whose children are Lineitems); levels.(3) Region *)
let levels =
  [|
    {
      entity = "Orders"; pk = "okey"; fk_down = "okey"; narrow_attr = "odate";
      wide_attrs = [ "odate"; "ototal"; "opriority"; "ocomment" ];
      nested_attr = "o_parts";
    };
    {
      entity = "Customer"; pk = "ckey"; fk_down = "ckey"; narrow_attr = "cname";
      wide_attrs = [ "cname"; "acctbal"; "mktsegment"; "ccomment" ];
      nested_attr = "c_orders";
    };
    {
      entity = "Nation"; pk = "nkey"; fk_down = "nkey"; narrow_attr = "nname";
      wide_attrs = [ "nname"; "ncomment" ];
      nested_attr = "n_custs";
    };
    {
      entity = "Region"; pk = "rkey"; fk_down = "rkey"; narrow_attr = "rname";
      wide_attrs = [ "rname"; "rcomment" ];
      nested_attr = "r_nations";
    };
  |]

let leaf_attrs_narrow = [ "pkey"; "lqty" ]
let leaf_attrs_wide = [ "pkey"; "lqty"; "eprice"; "ldiscount"; "lcomment" ]

let flat_inputs_ty =
  [
    ("Lineitem", lineitem_ty);
    ("Orders", orders_ty);
    ("Customer", customer_ty);
    ("Nation", nation_ty);
    ("Region", region_ty);
    ("Part", part_ty);
  ]
