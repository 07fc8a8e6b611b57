(** Shared test fixtures: the paper's running example (Example 1) — the COP
    nested relation, the flat Part relation — plus a corpus of queries and
    datasets reused by the unnesting, shredding, and execution test suites. *)

module E = Nrc.Expr
module T = Nrc.Types
module V = Nrc.Value
open Nrc.Builder

(* ------------------------------------------------------------------ *)
(* Types *)

let oparts_item_ty = t_tup [ ("pid", t_int); ("qty", t_real) ]

let corders_item_ty =
  t_tup [ ("odate", t_date); ("oparts", t_bag oparts_item_ty) ]

let cop_item_ty =
  t_tup [ ("cname", t_str); ("corders", t_bag corders_item_ty) ]

let cop_ty = t_bag cop_item_ty

let part_item_ty =
  t_tup [ ("pid", t_int); ("pname", t_str); ("price", t_real) ]

let part_ty = t_bag part_item_ty

(* ------------------------------------------------------------------ *)
(* Values *)

let opart pid qty = V.Tuple [ ("pid", V.Int pid); ("qty", V.Real qty) ]

let corder odate oparts =
  V.Tuple [ ("odate", V.Date odate); ("oparts", V.Bag oparts) ]

let customer cname corders =
  V.Tuple [ ("cname", V.Str cname); ("corders", V.Bag corders) ]

let part pid pname price =
  V.Tuple [ ("pid", V.Int pid); ("pname", V.Str pname); ("price", V.Real price) ]

(** The COP instance: exercises every edge case the nest operators must
    handle — a customer with no orders, an order with no parts, a part
    missing from Part, and two customers sharing a name. *)
let cop_value =
  V.Bag
    [
      customer "alice"
        [
          corder 100 [ opart 1 2.0; opart 2 1.0; opart 1 1.5 ];
          corder 101 [ opart 3 4.0 ];
        ];
      customer "bob" [ corder 102 [] ];
      customer "carol" [];
      customer "dave" [ corder 103 [ opart 99 5.0 ] ] (* pid 99 not in Part *);
      customer "alice" [ corder 104 [ opart 2 2.5 ] ] (* duplicate cname *);
    ]

let part_value =
  V.Bag
    [
      part 1 "widget" 10.0;
      part 2 "gadget" 20.0;
      part 3 "widget" 30.0 (* same pname as pid 1: aggregation across pids *);
      part 4 "unused" 99.0;
    ]

let inputs_ty = [ ("COP", cop_ty); ("Part", part_ty) ]
let inputs_val = [ ("COP", cop_value); ("Part", part_value) ]

(* ------------------------------------------------------------------ *)
(* Queries *)

(** Example 1 of the paper: for each customer and order, the total spent per
    part name (nested-to-nested with a localized join + sumBy). *)
let example1 =
  for_ "cop" (input "COP") (fun cop ->
      sng
        (record
           [
             ("cname", cop #. "cname");
             ( "corders",
               for_ "co" (cop #. "corders") (fun co ->
                   sng
                     (record
                        [
                          ("odate", co #. "odate");
                          ( "oparts",
                            sum_by ~keys:[ "pname" ] ~values:[ "total" ]
                              (for_ "op" (co #. "oparts") (fun op ->
                                   for_ "p" (input "Part") (fun p ->
                                       where
                                         (op #. "pid" == p #. "pid")
                                         (sng
                                            (record
                                               [
                                                 ("pname", p #. "pname");
                                                 ( "total",
                                                   op #. "qty" * p #. "price" );
                                               ]))))) );
                        ])) );
           ]))

(** Flat projection of COP: one output row per (cname, odate, pid, qty). *)
let flatten_query =
  for_ "cop" (input "COP") (fun cop ->
      for_ "co" (cop #. "corders") (fun co ->
          for_ "op" (co #. "oparts") (fun op ->
              sng
                (record
                   [
                     ("cname", cop #. "cname");
                     ("odate", co #. "odate");
                     ("pid", op #. "pid");
                     ("qty", op #. "qty");
                   ]))))

(** Nested-to-flat: total spent per customer name (navigates all levels,
    aggregates at top). *)
let nested_to_flat =
  sum_by ~keys:[ "cname" ] ~values:[ "total" ]
    (for_ "cop" (input "COP") (fun cop ->
         for_ "co" (cop #. "corders") (fun co ->
             for_ "op" (co #. "oparts") (fun op ->
                 for_ "p" (input "Part") (fun p ->
                     where
                       (op #. "pid" == p #. "pid")
                       (sng
                          (record
                             [
                               ("cname", cop #. "cname");
                               ("total", op #. "qty" * p #. "price");
                             ])))))))

(** Flat-to-nested: group Part rows under each distinct price band using a
    join-free nested comprehension over two flat inputs. *)
let flat_to_nested =
  for_ "p" (input "Part") (fun p ->
      sng
        (record
           [
             ("pname", p #. "pname");
             ( "parts",
               for_ "q" (input "Part") (fun q ->
                   where
                     (p #. "pname" == q #. "pname")
                     (sng (record [ ("pid", q #. "pid"); ("price", q #. "price") ]))) );
           ]))

(** Selection + projection over nested input without restructuring. *)
let select_nested =
  for_ "cop" (input "COP") (fun cop ->
      where
        (cop #. "cname" <> str "carol")
        (sng (record [ ("cname", cop #. "cname"); ("corders", cop #. "corders") ])))

(** groupBy at the top level over a flattened nested input. *)
let group_query =
  group_by [ "cname" ]
    (for_ "cop" (input "COP") (fun cop ->
         for_ "co" (cop #. "corders") (fun co ->
             sng (record [ ("cname", cop #. "cname"); ("odate", co #. "odate") ]))))

(** dedup over a flat projection. *)
let dedup_query =
  dedup
    (for_ "cop" (input "COP") (fun cop ->
         for_ "co" (cop #. "corders") (fun co ->
             for_ "op" (co #. "oparts") (fun op ->
                 sng (record [ ("pid", op #. "pid") ])))))

(** Three levels of output nesting from nested input (identity-like with
    renaming): stresses deep G-set maintenance. *)
let deep_nested =
  for_ "cop" (input "COP") (fun cop ->
      sng
        (record
           [
             ("name", cop #. "cname");
             ( "orders",
               for_ "co" (cop #. "corders") (fun co ->
                   sng
                     (record
                        [
                          ("day", co #. "odate");
                          ( "items",
                            for_ "op" (co #. "oparts") (fun op ->
                                where
                                  (op #. "qty" > real 1.0)
                                  (sng
                                     (record
                                        [
                                          ("pid", op #. "pid");
                                          ("qty", op #. "qty");
                                        ]))) );
                        ])) );
           ]))

(** Two bag-valued attributes at the same output level (exercises the
    extended grouping-set machinery of the unnester). *)
let two_bags =
  for_ "cop" (input "COP") (fun cop ->
      sng
        (record
           [
             ("cname", cop #. "cname");
             ( "dates",
               for_ "co" (cop #. "corders") (fun co ->
                   sng (record [ ("d", co #. "odate") ])) );
             ( "bought",
               for_ "co2" (cop #. "corders") (fun co2 ->
                   for_ "op" (co2 #. "oparts") (fun op ->
                       where
                         (op #. "qty" > real 1.0)
                         (sng (record [ ("pid", op #. "pid") ])))) );
           ]))

(** Union of two comprehensions at the top level. *)
let union_query =
  Nrc.Expr.Union
    ( for_ "p" (input "Part") (fun p ->
          where (p #. "price" > real 15.0)
            (sng (record [ ("pid", p #. "pid") ]))),
      for_ "cop" (input "COP") (fun cop ->
          for_ "co" (cop #. "corders") (fun co ->
              for_ "op" (co #. "oparts") (fun op ->
                  sng (record [ ("pid", op #. "pid") ])))) )

(** groupBy inside a nested attribute: orders grouped per part id within
    each customer. *)
let group_in_nested =
  for_ "cop" (input "COP") (fun cop ->
      sng
        (record
           [
             ("cname", cop #. "cname");
             ( "by_part",
               group_by [ "pid" ]
                 (for_ "co" (cop #. "corders") (fun co ->
                      for_ "op" (co #. "oparts") (fun op ->
                          sng
                            (record
                               [ ("pid", op #. "pid"); ("qty", op #. "qty") ]))))
             );
           ]))

(** Union of two nested-producing branches at the root (exercises
    dictionary-tree union in the shredded route: the output dictionary has
    one lambda per branch site). *)
let union_nested =
  (for_ "cop" (input "COP") (fun cop ->
       where
         (cop #. "cname" <> str "dave")
         (sng
            (record
               [
                 ("who", cop #. "cname");
                 ( "days",
                   for_ "co" (cop #. "corders") (fun co ->
                       sng (record [ ("d", co #. "odate") ])) );
               ]))))
  ++ for_ "p" (input "Part") (fun p ->
         where
           (p #. "price" > real 50.0)
           (sng
              (record
                 [
                   ("who", p #. "pname");
                   ("days", empty (t_tup [ ("d", t_date) ]));
                 ])))

(** All (name, query) pairs whose plan translation must agree with the NRC
    interpreter on the fixture data. *)
let corpus : (string * E.t) list =
  [
    ("example1", example1);
    ("flatten", flatten_query);
    ("nested_to_flat", nested_to_flat);
    ("flat_to_nested", flat_to_nested);
    ("select_nested", select_nested);
    ("group_query", group_query);
    ("dedup_query", dedup_query);
    ("deep_nested", deep_nested);
    ("two_bags", two_bags);
    ("group_in_nested", group_in_nested);
    ("union_nested", union_nested);
    ("union_query", union_query);
  ]

(* ------------------------------------------------------------------ *)
(* Helpers *)

let check_bag_equal what expected actual =
  if not (V.approx_bag_equal expected actual) then
    failwith
      (Fmt.str "%s: bags differ@.expected: %a@.actual:   %a" what V.pp
         (V.canonicalize expected) V.pp (V.canonicalize actual))

(** The span tree of a traced run agrees with its flat totals
    ({!Exec.Trace.agrees}). *)
let check_counters_agree what (r : Trance.Api.run) =
  let t = (Exec.Trace.agg r.Trance.Api.trace).Exec.Trace.counters in
  let s = Exec.Stats.snapshot r.Trance.Api.stats in
  if not (Exec.Trace.agrees r.Trance.Api.trace s) then
    failwith
      (Fmt.str "%s: span tree disagrees with the totals@.totals: %a@.spans:  %a"
         what Exec.Stats.pp_snapshot s Exec.Stats.pp_snapshot t)

(** A stored dataset's elements, partition by partition: its column 0. *)
let elements (d : Exec.Dataset.t) = Array.map (Array.map (fun (row : Plan.Row.t) -> row.(0))) d.parts

(** Per-property QCheck case count: [default], or [QCHECK_COUNT] when it
    holds a positive integer, so the nightly campaign scales every suite up
    (the seed comes from QCHECK_SEED via qcheck-alcotest). *)
let qcheck_count default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
    match int_of_string_opt s with Some n when Stdlib.(n > 0) -> n | _ -> default)
  | None -> default

(** Evaluate a query with the reference NRC interpreter on the fixture. *)
let eval_ref ?(extra = []) q =
  Nrc.Eval.eval (Nrc.Eval.env_of_list (inputs_val @ extra)) q

(** Translate with the unnester and evaluate with the local plan
    interpreter. *)
let eval_plan ?(extra_ty = []) ?(extra = []) ?config q =
  let plan = Trance.Unnest.translate ~tenv:(inputs_ty @ extra_ty) q in
  let plan =
    match config with
    | None -> plan
    | Some c -> Plan.Optimize.optimize ~config:c plan
  in
  let env = Plan.Local_eval.env_of_list (inputs_val @ extra) in
  Plan.Local_eval.eval_to_bag env plan
