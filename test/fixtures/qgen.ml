(** Random NRC query and data generation for property-based testing.

    Queries are drawn from a grammar of the supported fragment (selections,
    equi-joins, navigation, nested reconstruction, sumBy/groupBy at the root
    and inside nested attributes, dedup, unions of compatible branches,
    scalar conditionals in heads) over
    a fixed pair of flat relations and one nested relation, with random
    constants, projections, key choices and data. Input relations and
    nested [items] bags are generated empty with boosted probability, so
    the differential suites cover the empty-partition / empty-group edge
    cases that fault recovery and shuffling love to expose. Every generated
    query is checked across all evaluation routes against the reference
    interpreter (see test_random.ml). {!gen_lookalike} draws programs of
    such queries whose input and target names look like the names
    shredding generates. *)

module E = Nrc.Expr
module T = Nrc.Types
module V = Nrc.Value
module G = QCheck.Gen

(* ------------------------------------------------------------------ *)
(* Schemas *)

let r_ty =
  T.bag
    (T.tuple
       [ ("a", T.int_); ("b", T.int_); ("s", T.string_); ("v", T.real) ])

let s_ty = T.bag (T.tuple [ ("a", T.int_); ("w", T.real) ])

let n_ty =
  T.bag
    (T.tuple
       [
         ("k", T.int_);
         ("name", T.string_);
         ("items", T.bag (T.tuple [ ("a", T.int_); ("q", T.real) ]));
       ])

let inputs_ty = [ ("R", r_ty); ("S", s_ty); ("N", n_ty) ]

(* ------------------------------------------------------------------ *)
(* Data *)

let key_domain = 6 (* small domain: joins hit, groups collide *)

let gen_r_row =
  G.map3
    (fun a b (s, v) ->
      V.Tuple
        [
          ("a", V.Int a); ("b", V.Int b);
          ("s", V.Str (Printf.sprintf "s%d" s));
          ("v", V.Real (float_of_int v /. 4.));
        ])
    (G.int_bound (key_domain - 1))
    (G.int_bound (key_domain - 1))
    (G.pair (G.int_bound 3) (G.int_bound 40))

let gen_s_row =
  G.map2
    (fun a w ->
      V.Tuple [ ("a", V.Int a); ("w", V.Real (float_of_int w /. 2.)) ])
    (G.int_bound (key_domain - 1))
    (G.int_bound 30)

let gen_item =
  G.map2
    (fun a q -> V.Tuple [ ("a", V.Int a); ("q", V.Real (float_of_int q)) ])
    (G.int_bound (key_domain - 1))
    (G.int_bound 9)

(* a list that is empty one time in six, so empty relations, empty
   partitions and empty inner bags are first-class citizens of the corpus *)
let gen_bag_list n g =
  G.frequency [ (1, G.return []); (5, G.list_size (G.int_bound n) g) ]

let gen_n_row =
  G.map3
    (fun k name items ->
      V.Tuple
        [
          ("k", V.Int k);
          ("name", V.Str (Printf.sprintf "n%d" name));
          ("items", V.Bag items);
        ])
    (G.int_bound (key_domain - 1))
    (G.int_bound 3)
    (gen_bag_list 4 gen_item)

let gen_inputs : (string * V.t) list G.t =
  G.map3
    (fun rs ss ns ->
      [ ("R", V.Bag rs); ("S", V.Bag ss); ("N", V.Bag ns) ])
    (gen_bag_list 12 gen_r_row)
    (gen_bag_list 12 gen_s_row)
    (gen_bag_list 8 gen_n_row)

(* ------------------------------------------------------------------ *)
(* Input transforms for hint-soundness in properties *)

(** Keep the first S row per [a], making S genuinely unique on its key so
    a [unique_keys = [("S", ["a"])]] optimizer hint is sound on the data. *)
let dedup_s (inputs : (string * V.t) list) : (string * V.t) list =
  List.map
    (fun (name, v) ->
      if name <> "S" then (name, v)
      else
        let seen = Hashtbl.create 8 in
        let rows =
          List.filter
            (fun row ->
              match row with
              | V.Tuple fields -> (
                match List.assoc_opt "a" fields with
                | Some (V.Int a) when not (Hashtbl.mem seen a) ->
                  Hashtbl.add seen a ();
                  true
                | Some _ -> false
                | None -> true)
              | _ -> true)
            (V.bag_items v)
        in
        (name, V.Bag rows))
    inputs

(* ------------------------------------------------------------------ *)
(* Query generation *)

let fresh =
  let c = ref 0 in
  fun hint ->
    incr c;
    Printf.sprintf "%s%d" hint !c

(* a random comparison on an int attribute of [x] *)
let gen_int_pred (x : E.t) attr =
  G.map2
    (fun op c ->
      let cmp = match op with 0 -> E.Lt | 1 -> E.Le | 2 -> E.Gt | _ -> E.Ne in
      E.Cmp (cmp, E.Proj (x, attr), E.int_ c))
    (G.int_bound 3)
    (G.int_bound (key_domain - 1))

(* flat query over R (rows: a, b, s, v) possibly joined with S *)
let gen_flat_query : E.t G.t =
  let open G in
  let select =
    let x = fresh "x" in
    gen_int_pred (E.Var x) "a" >|= fun pred ->
    E.ForUnion
      ( x,
        E.Var "R",
        E.If
          ( pred,
            E.Singleton
              (E.Record
                 [
                   ("a", E.Proj (E.Var x, "a"));
                   ("s", E.Proj (E.Var x, "s"));
                   ("v", E.Proj (E.Var x, "v"));
                 ]),
            None ) )
  in
  let join =
    let x = fresh "x" and y = fresh "y" in
    gen_int_pred (E.Var x) "b" >|= fun pred ->
    E.ForUnion
      ( x,
        E.Var "R",
        E.ForUnion
          ( y,
            E.Var "S",
            E.If
              ( E.Logic
                  (E.And, E.Cmp (E.Eq, E.Proj (E.Var x, "a"), E.Proj (E.Var y, "a")), pred),
                E.Singleton
                  (E.Record
                     [
                       ("a", E.Proj (E.Var x, "a"));
                       ("s", E.Proj (E.Var x, "s"));
                       ("v", E.Prim (E.Mul, E.Proj (E.Var x, "v"), E.Proj (E.Var y, "w")));
                     ]),
                None ) ) )
  in
  let navigate =
    let n = fresh "n" and it = fresh "it" in
    gen_int_pred (E.Var it) "a" >|= fun pred ->
    E.ForUnion
      ( n,
        E.Var "N",
        E.ForUnion
          ( it,
            E.Proj (E.Var n, "items"),
            E.If
              ( pred,
                E.Singleton
                  (E.Record
                     [
                       ("a", E.Proj (E.Var n, "k"));
                       ("s", E.Proj (E.Var n, "name"));
                       ("v", E.Proj (E.Var it, "q"));
                     ]),
                None ) ) )
  in
  oneof [ select; join; navigate ]

(* all flat queries above produce rows (a:int, s:string, v:real) *)
let flat_row_ty = T.tuple [ ("a", T.int_); ("s", T.string_); ("v", T.real) ]

let gen_root_query : E.t G.t =
  let open G in
  let base = gen_flat_query in
  let unioned = map2 (fun a b -> E.Union (a, b)) gen_flat_query gen_flat_query in
  let summed =
    map2
      (fun q keys ->
        E.SumBy
          { input = q;
            keys = (if keys then [ "a"; "s" ] else [ "s" ]);
            values = [ "v" ] })
      (oneof [ base; unioned ])
      bool
  in
  let grouped =
    map (fun q -> E.GroupBy { input = q; keys = [ "a" ]; group_attr = "grp" }) base
  in
  let deduped =
    map
      (fun q ->
        let x = fresh "d" in
        E.Dedup
          (E.ForUnion
             ( x,
               q,
               E.Singleton
                 (E.Record
                    [ ("a", E.Proj (E.Var x, "a")); ("s", E.Proj (E.Var x, "s")) ])
             )))
      base
  in
  (* nested outputs: group S under R, or rebuild N with a transformed inner
     bag (filter / aggregate) *)
  let nest_join =
    let x = fresh "x" and y = fresh "y" in
    gen_int_pred (E.Var y) "a" >|= fun pred ->
    E.ForUnion
      ( x,
        E.Var "R",
        E.Singleton
          (E.Record
             [
               ("a", E.Proj (E.Var x, "a"));
               ( "kids",
                 E.ForUnion
                   ( y,
                     E.Var "S",
                     E.If
                       ( E.Logic
                           ( E.And,
                             E.Cmp (E.Eq, E.Proj (E.Var y, "a"), E.Proj (E.Var x, "a")),
                             pred ),
                         E.Singleton (E.Record [ ("w", E.Proj (E.Var y, "w")) ]),
                         None ) ) );
             ]) )
  in
  let rebuild_filter =
    let n = fresh "n" and it = fresh "i" in
    gen_int_pred (E.Var it) "a" >|= fun pred ->
    E.ForUnion
      ( n,
        E.Var "N",
        E.Singleton
          (E.Record
             [
               ("name", E.Proj (E.Var n, "name"));
               ( "items",
                 E.ForUnion
                   ( it,
                     E.Proj (E.Var n, "items"),
                     E.If
                       ( pred,
                         E.Singleton
                           (E.Record
                              [
                                ("a", E.Proj (E.Var it, "a"));
                                ("q", E.Proj (E.Var it, "q"));
                              ]),
                         None ) ) );
             ]) )
  in
  let rebuild_aggregate =
    let n = fresh "n" and it = fresh "i" and y = fresh "y" in
    return
      (E.ForUnion
         ( n,
           E.Var "N",
           E.Singleton
             (E.Record
                [
                  ("k", E.Proj (E.Var n, "k"));
                  ( "items",
                    E.SumBy
                      { keys = [ "a" ];
                        values = [ "t" ];
                        input =
                          E.ForUnion
                            ( it,
                              E.Proj (E.Var n, "items"),
                              E.ForUnion
                                ( y,
                                  E.Var "S",
                                  E.If
                                    ( E.Cmp
                                        ( E.Eq,
                                          E.Proj (E.Var it, "a"),
                                          E.Proj (E.Var y, "a") ),
                                      E.Singleton
                                        (E.Record
                                           [
                                             ("a", E.Proj (E.Var it, "a"));
                                             ( "t",
                                               E.Prim
                                                 ( E.Mul,
                                                   E.Proj (E.Var it, "q"),
                                                   E.Proj (E.Var y, "w") ) );
                                           ]),
                                      None ) ) ) } );
                ]) ))
  in
  (* two bag-valued attributes at one level *)
  let nest_two =
    let n = fresh "n" and i1 = fresh "i" and i2 = fresh "j" in
    gen_int_pred (E.Var i2) "a" >|= fun pred ->
    E.ForUnion
      ( n,
        E.Var "N",
        E.Singleton
          (E.Record
             [
               ("k", E.Proj (E.Var n, "k"));
               ( "all_items",
                 E.ForUnion
                   ( i1,
                     E.Proj (E.Var n, "items"),
                     E.Singleton (E.Record [ ("q", E.Proj (E.Var i1, "q")) ]) ) );
               ( "some_items",
                 E.ForUnion
                   ( i2,
                     E.Proj (E.Var n, "items"),
                     E.If
                       ( pred,
                         E.Singleton (E.Record [ ("a", E.Proj (E.Var i2, "a")) ]),
                         None ) ) );
             ]) )
  in
  (* union of two nested-producing branches *)
  let nest_union =
    map2
      (fun a b -> E.Union (a, b))
      (let x = fresh "x" and y = fresh "y" in
       gen_int_pred (E.Var y) "a" >|= fun pred ->
       E.ForUnion
         ( x,
           E.Var "R",
           E.Singleton
             (E.Record
                [
                  ("a", E.Proj (E.Var x, "a"));
                  ( "kids",
                    E.ForUnion
                      ( y,
                        E.Var "S",
                        E.If
                          ( E.Logic
                              ( E.And,
                                E.Cmp
                                  ( E.Eq,
                                    E.Proj (E.Var y, "a"),
                                    E.Proj (E.Var x, "a") ),
                                pred ),
                            E.Singleton
                              (E.Record [ ("w", E.Proj (E.Var y, "w")) ]),
                            None ) ) );
                ]) ))
      (let y = fresh "y" in
       return
         (E.ForUnion
            ( y,
              E.Var "S",
              E.Singleton
                (E.Record
                   [
                     ("a", E.Proj (E.Var y, "a"));
                     ( "kids",
                       E.Singleton (E.Record [ ("w", E.Proj (E.Var y, "w")) ])
                     );
                   ]) )))
  in
  (* scalar conditionals in a head: int and string branches at the top,
     a real one inside the nested level *)
  let cond_head =
    let n = fresh "n" and it = fresh "i" in
    map2
      (fun top inner ->
        E.ForUnion
          ( n,
            E.Var "N",
            E.Singleton
              (E.Record
                 [
                   ("k", E.If (top, E.Proj (E.Var n, "k"), Some (E.int_ (-1))));
                   ("name", E.If (top, E.str "hit", Some (E.Proj (E.Var n, "name"))));
                   ( "items",
                     E.ForUnion
                       ( it,
                         E.Proj (E.Var n, "items"),
                         E.Singleton
                           (E.Record
                              [
                                ("a", E.Proj (E.Var it, "a"));
                                ("q", E.If (inner, E.Proj (E.Var it, "q"), Some (E.real 0.5)));
                              ]) ) );
                 ]) ))
      (gen_int_pred (E.Var n) "k")
      (gen_int_pred (E.Var it) "a")
  in
  frequency
    [
      (3, base); (1, unioned); (2, summed); (1, grouped); (1, deduped);
      (2, nest_join); (2, rebuild_filter); (2, rebuild_aggregate);
      (2, nest_two); (1, nest_union); (2, cond_head);
    ]

(* ------------------------------------------------------------------ *)
(* Arbitrary instance: a query together with input data *)

let print_case (q, inputs) =
  Fmt.str "query:@.%a@.inputs:@.%a@." E.pp q
    (Fmt.list ~sep:Fmt.cut (fun ppf (n, v) -> Fmt.pf ppf "%s = %a" n V.pp v))
    inputs

let arbitrary_case : (E.t * (string * V.t) list) QCheck.arbitrary =
  QCheck.make ~print:print_case (G.pair gen_root_query gen_inputs)

(* ------------------------------------------------------------------ *)
(* Programs whose names look like generated ones *)

(* rename attribute [a] to [b] everywhere in a type, a value, a query *)
let rename a b n = if n = a then b else n

let rec rename_ty a b : T.t -> T.t = function
  | T.TTuple fs -> T.TTuple (List.map (fun (n, t) -> (rename a b n, rename_ty a b t)) fs)
  | T.TBag t -> T.TBag (rename_ty a b t)
  | t -> t

let rec rename_val a b : V.t -> V.t = function
  | V.Tuple fs -> V.Tuple (List.map (fun (n, v) -> (rename a b n, rename_val a b v)) fs)
  | V.Bag vs -> V.Bag (List.map (rename_val a b) vs)
  | v -> v

let rec rename_expr a b (e : E.t) : E.t =
  match E.map_children (rename_expr a b) e with
  | E.Proj (x, n) -> E.Proj (x, rename a b n)
  | E.Record fs -> E.Record (List.map (fun (n, x) -> (rename a b n, x)) fs)
  | e -> e

(* [x] and names that look like those of [x]'s shredded datasets *)
let shapes field x = [ x; x ^ "_D"; x ^ "_F"; x ^ "_D_" ^ field; x ^ "_Dom" ]

(* ["N_D_F"] -> ["N"; "N_D"] *)
let prefixes name =
  let parts = String.split_on_char '_' name in
  List.init (List.length parts - 1) (fun k ->
      String.concat "_" (List.filteri (fun i _ -> i <= k) parts))

(* A program of one to three Qgen queries over Qgen's inputs, with N's bag
   attribute named [items] or [F] and the flat inputs and the targets named
   after each other's shredded datasets: [N_D] for S makes S's top bag
   render as N's dictionary for [F], a target [Q_D] after a target [Q] with
   an [F] attribute does the same, a target may take an input's name or an
   earlier target's. *)
let gen_lookalike =
  let open QCheck.Gen in
  let* field = oneofl [ "items"; "F" ] in
  let like_n = List.tl (shapes field "N") in
  let* s_name = oneofl ("S" :: like_n) in
  let* r_name = oneofl ("R" :: List.filter (( <> ) s_name) like_n) in
  let names = [ ("R", r_name); ("S", s_name); ("N", "N") ] in
  let inputs_ty = List.map (fun (n, ty) -> (List.assoc n names, rename_ty "items" field ty)) inputs_ty in
  let query q =
    List.fold_left (fun q (n, n') -> E.subst n (E.Var n') q) (rename_expr "items" field q) names
  in
  let* steps = int_range 1 3 in
  let rec assignments targets k =
    if k = 0 then return []
    else
      let bases = "X" :: List.map snd names @ targets @ List.concat_map (fun (_, n) -> prefixes n) names in
      let* target = oneofl (List.concat_map (shapes field) bases) in
      let* q = gen_root_query in
      let+ rest = assignments (target :: targets) (k - 1) in
      (target, query q) :: rest
  in
  let* assignments = assignments [] steps in
  let+ values = gen_inputs in
  ( Nrc.Program.make ~inputs:inputs_ty assignments,
    List.map (fun (n, v) -> (List.assoc n names, rename_val "items" field v)) values )

let print_lookalike (p, values) =
  Fmt.str "%s@.inputs:@.%a" (Nrc.Program.to_string p)
    (Fmt.list ~sep:Fmt.cut (fun ppf (n, v) -> Fmt.pf ppf "%s = %a" n V.pp v))
    values
