(** Deterministic TPC-H-like data generator with Zipfian skew (Section 6).

    Cardinality ratios follow the paper's organization (lineitems : orders
    : customers = 40 : 10 : 1, 25 nations, 5 regions); skew factor s in 0-4
    Zipf-distributes the customer of each order (skewed inner collections)
    and the part key of each lineitem (heavy join keys). *)

type scale = {
  customers : int;
  orders_per_customer : int;
  lineitems_per_order : int;
  parts : int;
  skew : int;  (** 0..4 *)
  comment_width : int;  (** padding width of wide-variant strings *)
  seed : int;
}

val default_scale : scale

type db = {
  scale : scale;
  lineitem : Nrc.Value.t;
  orders : Nrc.Value.t;
  customer : Nrc.Value.t;
  nation : Nrc.Value.t;
  region : Nrc.Value.t;
  part : Nrc.Value.t;
}

val generate : scale -> db
val flat_inputs : db -> (string * Nrc.Value.t) list

val nested_input : ?wide:bool -> level:int -> db -> Nrc.Value.t
(** The materialized result of the flat-to-nested query at the given level
    (0 = flat leaf projection, 4 = grouped up to regions), built directly by
    one walk down {!Schema.levels}: each level's children are bucketed once
    by their int key, in bag order. Equals the evaluated
    {!Queries.flat_to_nested} (asserted in the test suite). *)
