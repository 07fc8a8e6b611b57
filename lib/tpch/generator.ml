(** Deterministic TPC-H-like data generator with Zipfian skew (Section 6).

    Cardinality ratios follow the paper's organization — the number of
    top-level tuples decreases as the nesting level increases: at scale
    factor 100 the paper has 600M lineitems / 150M orders / 15M customers /
    25 nations / 5 regions; we preserve 4 lineitems per order, 10 orders per
    customer, 25 nations, 5 regions at a configurable base size.

    Skew factor s in 0..4 applies a Zipf(s) distribution to (a) the
    customer of each order — few customers get very many orders, producing
    skewed inner collections — and (b) the part key of each lineitem —
    producing heavy join keys. Factor 0 is the uniform baseline. *)

module V = Nrc.Value

type scale = {
  customers : int;
  orders_per_customer : int; (* average *)
  lineitems_per_order : int; (* average *)
  parts : int;
  skew : int; (* 0..4 *)
  comment_width : int; (* padding width for wide-variant strings *)
  seed : int;
}

let default_scale =
  {
    customers = 300;
    orders_per_customer = 10;
    lineitems_per_order = 4;
    parts = 400;
    skew = 0;
    comment_width = 24;
    seed = 7;
  }

type db = {
  scale : scale;
  lineitem : V.t;
  orders : V.t;
  customer : V.t;
  nation : V.t;
  region : V.t;
  part : V.t;
}

let nations = 25
let regions = 5

let pad width tag i =
  let s = Printf.sprintf "%s%d" tag i in
  if String.length s >= width then s
  else s ^ String.make (width - String.length s) '.'

let generate (scale : scale) : db =
  let rng = Zipf.create ~n:1 ~skew:0 ~seed:scale.seed in
  (* uniform helper over arbitrary bounds *)
  let u bound = Zipf.uniform rng bound in
  let cw = scale.comment_width in
  let region =
    V.Bag
      (List.init regions (fun r ->
           V.Tuple
             [
               ("rkey", V.Int r);
               ("rname", V.Str (Printf.sprintf "region%d" r));
               ("rcomment", V.Str (pad cw "rc" r));
             ]))
  in
  let nation =
    V.Bag
      (List.init nations (fun n ->
           V.Tuple
             [
               ("nkey", V.Int n);
               ("nname", V.Str (Printf.sprintf "nation%d" n));
               ("rkey", V.Int (n mod regions));
               ("ncomment", V.Str (pad cw "nc" n));
             ]))
  in
  let customer =
    V.Bag
      (List.init scale.customers (fun c ->
           V.Tuple
             [
               ("ckey", V.Int c);
               ("cname", V.Str (Printf.sprintf "cust%d" c));
               ("nkey", V.Int (c mod nations));
               ("acctbal", V.Real (float_of_int (u 10000) /. 10.));
               ("mktsegment", V.Str (Printf.sprintf "seg%d" (u 5)));
               ("ccomment", V.Str (pad cw "cc" c));
             ]))
  in
  let n_orders = scale.customers * scale.orders_per_customer in
  let cust_zipf =
    Zipf.create ~n:scale.customers ~skew:scale.skew ~seed:(scale.seed + 1)
  in
  let orders_list =
    List.init n_orders (fun o ->
        let ckey =
          if scale.skew = 0 then o mod scale.customers else Zipf.draw cust_zipf
        in
        V.Tuple
          [
            ("okey", V.Int o);
            ("ckey", V.Int ckey);
            ("odate", V.Date (7000 + u 2500));
            ("ototal", V.Real (float_of_int (u 500000) /. 100.));
            ("opriority", V.Str (Printf.sprintf "p%d" (u 5)));
            ("ocomment", V.Str (pad cw "oc" o));
          ])
  in
  let n_lineitems = n_orders * scale.lineitems_per_order in
  let part_zipf =
    Zipf.create ~n:scale.parts ~skew:scale.skew ~seed:(scale.seed + 2)
  in
  let lineitem_list =
    List.init n_lineitems (fun l ->
        let pkey =
          if scale.skew = 0 then u scale.parts else Zipf.draw part_zipf
        in
        V.Tuple
          [
            ("okey", V.Int (l mod n_orders));
            ("pkey", V.Int pkey);
            ("lqty", V.Real (1. +. float_of_int (u 50)));
            ("eprice", V.Real (float_of_int (u 10000) /. 100.));
            ("ldiscount", V.Real (float_of_int (u 10) /. 100.));
            ("lcomment", V.Str (pad cw "lc" l));
          ])
  in
  let part =
    V.Bag
      (List.init scale.parts (fun p ->
           V.Tuple
             [
               ("pkey", V.Int p);
               (* several parts share a name: aggregation across pkeys *)
               ("pname", V.Str (Printf.sprintf "part%d" (p / 4)));
               ("pprice", V.Real (1. +. (float_of_int (u 9999) /. 100.)));
               ("brand", V.Str (Printf.sprintf "brand%d" (u 25)));
               ("pcomment", V.Str (pad cw "pc" p));
             ]))
  in
  {
    scale;
    lineitem = V.Bag lineitem_list;
    orders = V.Bag orders_list;
    customer;
    nation;
    region;
    part;
  }

let flat_inputs (db : db) : (string * V.t) list =
  [
    ("Lineitem", db.lineitem);
    ("Orders", db.orders);
    ("Customer", db.customer);
    ("Nation", db.nation);
    ("Region", db.region);
    ("Part", db.part);
  ]

(* ------------------------------------------------------------------ *)
(* Nested input construction: materializes the result of the flat-to-nested
   query at a given level directly (the nested-to-* benchmarks take this as
   their input, exactly as the paper materializes the flat-to-nested output
   before timing the downstream queries). *)

let project attrs row = List.map (fun a -> (a, V.field row a)) attrs

(** The nested input of the given nesting level (0..4) and variant: the
    rows of [Schema.levels.(level - 1)], each nesting its children under
    its [nested_attr], down to the projected lineitems at level 0. *)
let nested_input ?(wide = false) ~level (db : db) : V.t =
  (* the flat rows of level [l]: lineitems at 0, else the level's entity *)
  let relation l =
    if l = 0 then V.bag_items db.lineitem
    else V.bag_items (List.assoc Schema.levels.(l - 1).entity (flat_inputs db))
  in
  let key (info : Schema.level_info) row =
    match V.field row info.pk with
    | V.Int k -> k
    | _ -> invalid_arg "Generator.nested_input: key is not an int"
  in
  (* children.(l - 1).(k): the level-(l - 1) rows under the level-[l] row
     of key [k], in bag order; a level's keys are its rows' indexes *)
  let children =
    Array.init level (fun i ->
        let info = Schema.levels.(i) in
        let buckets = Array.make (List.length (relation (i + 1))) [] in
        List.iter
          (fun row ->
            let k = key info row in
            buckets.(k) <- row :: buckets.(k))
          (relation i);
        Array.map List.rev buckets)
  in
  let rec nest l rows =
    if l = 0 then
      List.map (fun row -> V.Tuple (project (Schema.leaf_attrs ~wide) row)) rows
    else
      let info = Schema.levels.(l - 1) in
      let nest_row row =
        let kids = nest (l - 1) children.(l - 1).(key info row) in
        V.Tuple
          (project (Schema.level_attrs ~wide info) row
          @ [ (info.nested_attr, V.Bag kids) ])
      in
      List.map nest_row rows
  in
  V.Bag (nest level (relation level))
