(** TPC-H-derived schema used by the micro-benchmark (Section 6): the level
    hierarchy Lineitem -> Orders -> Customer -> Nation -> Region plus the
    flat Part relation joined at the lowest level.

    Each entity has a narrow attribute (the single attribute the narrow
    query variant keeps at that level) and a set of wide attributes
    (everything, including padded comment strings, for the wide variant). *)

module T = Nrc.Types

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

type level_info = {
  entity : string; (* dataset name of the flat input *)
  pk : string; (* primary key attribute, also the child's FK *)
  narrow_attr : string; (* the single attribute kept by narrow queries *)
  wide_attrs : string list; (* all non-key payload attributes *)
  nested_attr : string; (* name of the nested collection in outputs *)
}

(* levels.(0) is Orders (whose children are Lineitems); levels.(3) Region *)
let levels =
  [|
    {
      entity = "Orders"; pk = "okey"; narrow_attr = "odate";
      wide_attrs = [ "odate"; "ototal"; "opriority"; "ocomment" ];
      nested_attr = "o_parts";
    };
    {
      entity = "Customer"; pk = "ckey"; narrow_attr = "cname";
      wide_attrs = [ "cname"; "acctbal"; "mktsegment"; "ccomment" ];
      nested_attr = "c_orders";
    };
    {
      entity = "Nation"; pk = "nkey"; narrow_attr = "nname";
      wide_attrs = [ "nname"; "ncomment" ];
      nested_attr = "n_custs";
    };
    {
      entity = "Region"; pk = "rkey"; narrow_attr = "rname";
      wide_attrs = [ "rname"; "rcomment" ];
      nested_attr = "r_nations";
    };
  |]

let leaf_attrs ~wide =
  if wide then [ "pkey"; "lqty"; "eprice"; "ldiscount"; "lcomment" ]
  else [ "pkey"; "lqty" ]

let level_attrs ~wide info =
  if wide then info.wide_attrs else [ info.narrow_attr ]

let flat_inputs_ty =
  let rel fields = T.bag (T.tuple fields) in
  [
    ("Lineitem", lineitem_ty);
    ( "Orders",
      rel
        [
          ("okey", T.int_); ("ckey", T.int_); ("odate", T.date);
          ("ototal", T.real); ("opriority", T.string_);
          ("ocomment", T.string_);
        ] );
    ( "Customer",
      rel
        [
          ("ckey", T.int_); ("cname", T.string_); ("nkey", T.int_);
          ("acctbal", T.real); ("mktsegment", T.string_);
          ("ccomment", T.string_);
        ] );
    ( "Nation",
      rel
        [
          ("nkey", T.int_); ("nname", T.string_); ("rkey", T.int_);
          ("ncomment", T.string_);
        ] );
    ( "Region",
      rel [ ("rkey", T.int_); ("rname", T.string_); ("rcomment", T.string_) ]
    );
    ("Part", part_ty);
  ]
