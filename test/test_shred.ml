(** Tests for the shredded pipeline: shredded types (Example 3), value
    shred/unshred roundtrips, symbolic shredding + materialization (Examples
    4-6) validated against the reference interpreter on the whole corpus,
    domain elimination effects, and dictionary aliasing (label reuse). *)

module B = Nrc.Builder
module E = Nrc.Expr
module T = Nrc.Types
module V = Nrc.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Shredded types: Example 3 *)

let test_flat_type () =
  let cop_elem = T.element Fixtures.cop_ty in
  let flat = Trance.Shred_type.flat_of cop_elem in
  check "COP^F replaces corders by a label" true
    (T.equal flat (T.tuple [ ("cname", T.string_); ("corders", T.TLabel) ]));
  let corders_elem = Trance.Shred_type.elem_at cop_elem [ "corders" ] in
  let flat1 = Trance.Shred_type.flat_of corders_elem in
  check "corders^F replaces oparts by a label" true
    (T.equal flat1 (T.tuple [ ("odate", T.date); ("oparts", T.TLabel) ]));
  check "oparts items already flat" true
    (T.equal
       (Trance.Shred_type.flat_of
          (Trance.Shred_type.elem_at cop_elem [ "corders"; "oparts" ]))
       (Trance.Shred_type.elem_at cop_elem [ "corders"; "oparts" ]))

let test_dict_paths () =
  let cop_elem = T.element Fixtures.cop_ty in
  check "two dictionary levels for COP" true
    (Trance.Shred_type.dict_paths cop_elem
    = [ [ "corders" ]; [ "corders"; "oparts" ] ]);
  check_int "no dictionaries for flat Part" 0
    (List.length (Trance.Shred_type.dict_paths (T.element Fixtures.part_ty)))

let test_shredded_inputs () =
  let inputs = [ ("COP", Fixtures.cop_ty) ] in
  let sigs = Trance.Registry.(datasets (of_inputs inputs)) "COP" Fixtures.cop_ty in
  check_int "three shredded datasets for COP" 3 (List.length sigs);
  check_str "top name" "COP_F" (fst (List.nth sigs 0));
  check_str "level-1 dict" "COP_D_corders" (fst (List.nth sigs 1));
  check_str "level-2 dict" "COP_D_corders_oparts" (fst (List.nth sigs 2));
  (match List.assoc "COP_D_corders" sigs with
  | T.TBag (T.TTuple (("label", T.TLabel) :: rest)) ->
    check "dict columns are flat item fields" true
      (rest = [ ("odate", T.date); ("oparts", T.TLabel) ])
  | _ -> Alcotest.fail "unexpected dict type")

(* The shredder records which datasets are dictionaries where it makes
   them, and the loader and the shredded compiler read that record:
   every input dictionary of the ten TPC-H nested inputs and of biomed is
   loaded with the label guarantee, every materialized dictionary is cast
   by [BagToDict], and no top bag or label domain is either. The expected
   roles come from the default renderings of [Shred_type]: none of these
   programs has a name that clashes. *)
let test_recorded_roles () =
  let module ST = Trance.Shred_type in
  let nested =
    List.concat_map
      (fun wide ->
        List.init 5 (fun level ->
            (Tpch.Queries.nested_name, Tpch.Queries.nested_input_ty ~wide ~level ())))
      [ false; true ]
  in
  let dicts_of base = function
    | T.TBag elem -> List.map (fun p -> ST.render (Dict (base, p))) (ST.dict_paths elem)
    | _ -> []
  in
  let input_dicts = ref 0 in
  List.iter
    (fun inputs ->
      let env =
        Trance.Api.load_shredded_inputs ~cluster:Exec.Config.default inputs
          (List.map (fun (n, _) -> (n, V.Bag [])) inputs)
      in
      let dicts = List.concat_map (fun (n, ty) -> dicts_of n ty) inputs in
      input_dicts := !input_dicts + List.length dicts;
      Hashtbl.iter
        (fun n (ds : Exec.Dataset.t) ->
          check (n ^ " loaded with the label guarantee") (List.mem n dicts)
            (ds.key = Some [ Plan.Sexpr.Col [ "item"; "label" ] ]))
        env)
    (List.map (fun i -> [ i ]) nested @ [ Biomed.Schema.inputs_ty ]);
  (* levels 0-4 nest 0-4 deep, narrow and wide; biomed nests three bags *)
  check_int "every input dictionary seen" 23 !input_dicts;
  let programs =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun level ->
            List.map
              (fun wide -> Tpch.Queries.program ~wide ~family ~level ())
              [ false; true ])
          [ 0; 1; 2; 3; 4 ])
      Tpch.Queries.[ Flat_to_nested; Nested_to_nested; Nested_to_flat ]
    @ [ Biomed.Pipeline.program ]
    @ List.map
        (fun (_, q) -> Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty q)
        Fixtures.corpus
  in
  let mat_dicts = ref 0 in
  List.iter
    (fun (p : Nrc.Program.t) ->
      let c = Trance.Api.compile_shredded p in
      let types = Nrc.Program.typecheck p in
      let targets =
        List.map (fun { Nrc.Program.target; _ } -> target) p.assignments
      in
      let dicts =
        List.concat_map
          (fun t -> dicts_of t (Nrc.Typecheck.Env.find t types))
          targets
      in
      List.iter2
        (fun (n, plan) (n', (o : Trance.Shred_pipeline.origin)) ->
          check_str "origins follow the assignments" n n';
          check (n ^ " materialized for a source step") true
            (List.mem o.step targets);
          let cast = match plan with Plan.Op.BagToDict _ -> true | _ -> false in
          let dict = List.mem n dicts in
          if dict then incr mat_dicts
          else
            check (n ^ " is a top bag or a label domain") true
              (n = ST.render (Top o.step)
              || String.starts_with ~prefix:(ST.render (Dom (o.step, []))) n);
          check (n ^ " cast by BagToDict") dict cast)
        c.plans c.pipeline.origins)
    programs;
  check "some materialized dictionaries seen" true (!mat_dicts > 0)

(* ------------------------------------------------------------------ *)
(* Value shredding *)

let test_value_roundtrip () =
  let elem = T.element Fixtures.cop_ty in
  let s = Trance.Shred_value.shred_bag "COP" elem Fixtures.cop_value in
  (* top bag: one flat tuple per customer, labels in corders position *)
  check_int "top cardinality" 5 (List.length (V.bag_items s.Trance.Shred_value.top));
  List.iter
    (fun item ->
      match V.field item "corders" with
      | V.Label _ -> ()
      | v -> Alcotest.failf "expected label, got %a" V.pp v)
    (V.bag_items s.Trance.Shred_value.top);
  (* dictionary sizes: 5 orders total, 5 opart rows total *)
  let d1 = List.assoc [ "corders" ] s.Trance.Shred_value.dicts in
  let d2 = List.assoc [ "corders"; "oparts" ] s.Trance.Shred_value.dicts in
  check_int "corders dict rows" 5 (List.length (V.bag_items d1));
  check_int "oparts dict rows" 6 (List.length (V.bag_items d2));
  (* roundtrip *)
  let back =
    Trance.Shred_value.unshred_bag elem s.Trance.Shred_value.top
      s.Trance.Shred_value.dicts
  in
  Fixtures.check_bag_equal "shred/unshred roundtrip" Fixtures.cop_value back

let gen_nested_value =
  (* random values of the COP element type *)
  QCheck.Gen.(
    let opart = map2 Fixtures.opart (int_bound 10) (map float_of_int (int_bound 20)) in
    let corder =
      map2 Fixtures.corder (int_bound 400) (list_size (int_bound 4) opart)
    in
    let cust =
      map2 Fixtures.customer
        (oneofl [ "a"; "b"; "c" ])
        (list_size (int_bound 3) corder)
    in
    map (fun cs -> V.Bag cs) (list_size (int_bound 6) cust))

let prop_shred_roundtrip =
  QCheck.Test.make ~name:"random COP values: shred/unshred roundtrip"
    ~count:(Fixtures.qcheck_count 100)
    (QCheck.make ~print:V.to_string gen_nested_value)
    (fun v ->
      let elem = T.element Fixtures.cop_ty in
      let s = Trance.Shred_value.shred_bag "COP" elem v in
      let back =
        Trance.Shred_value.unshred_bag elem s.Trance.Shred_value.top
          s.Trance.Shred_value.dicts
      in
      V.bag_equal v back)

(* ------------------------------------------------------------------ *)
(* End-to-end query shredding: the whole corpus must agree with the
   reference interpreter *)

let shredded_agree ?config name q () =
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  let expected = Fixtures.eval_ref q in
  let _, _, actual =
    Trance.Shred_pipeline.eval_shredded ?config prog Fixtures.inputs_val
  in
  Fixtures.check_bag_equal name expected actual

let corpus_tests =
  List.concat_map
    (fun (name, q) ->
      [
        Alcotest.test_case (name ^ " (shredded)") `Quick (shredded_agree name q);
        Alcotest.test_case (name ^ " (shredded, no domain elim)") `Quick
          (shredded_agree
             ~config:{ Trance.Materialize.domain_elimination = false }
             name q);
      ])
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* Structure of the materialized program *)

let shred_of q =
  Trance.Shred_pipeline.shred_program
    (Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q)

let test_example1_structure () =
  let sp = shred_of Fixtures.example1 in
  (* output: top bag + 2 dictionaries; corders level aliases nothing (new
     labels) but the materialization touches only dictionaries, never the
     full nested value *)
  check_str "top" "Q_F" sp.Trance.Shred_pipeline.top;
  check_int "two output dictionaries" 2
    (List.length sp.Trance.Shred_pipeline.dicts);
  (* with domain elimination, no label-domain assignments remain *)
  let has_domain =
    List.exists
      (fun { Nrc.Program.target; _ } ->
        String.length target >= 5 && String.sub target 0 5 = "Q_Dom")
      sp.Trance.Shred_pipeline.mat.Nrc.Program.assignments
  in
  check "domain eliminated (Example 6)" false has_domain;
  (* the materialized program typechecks as a (label-aware) program *)
  ignore (Nrc.Program.typecheck ~source:false sp.Trance.Shred_pipeline.mat)

let test_example1_no_elim_structure () =
  let sp =
    Trance.Shred_pipeline.shred_program
      ~config:{ Trance.Materialize.domain_elimination = false }
      (Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.example1)
  in
  let has_domain =
    List.exists
      (fun { Nrc.Program.target; _ } ->
        String.length target >= 5 && String.sub target 0 5 = "Q_Dom")
      sp.Trance.Shred_pipeline.mat.Nrc.Program.assignments
  in
  check "label domains present without elimination (Figure 5)" true has_domain

let test_alias_label_reuse () =
  (* select_nested copies cop.corders: both output levels must alias the
     input dictionaries, with no assignments for them *)
  let sp = shred_of Fixtures.select_nested in
  let dicts = sp.Trance.Shred_pipeline.dicts in
  check_str "corders aliases input dict" "COP_D_corders"
    (List.assoc [ "corders" ] dicts);
  check_str "oparts aliases input dict" "COP_D_corders_oparts"
    (List.assoc [ "corders"; "oparts" ] dicts);
  check_int "single materialized assignment (top only)" 1
    (List.length sp.Trance.Shred_pipeline.mat.Nrc.Program.assignments)

let test_flat_output_no_unshred () =
  let sp = shred_of Fixtures.nested_to_flat in
  check "flat output needs no unshredding" true
    (sp.Trance.Shred_pipeline.unshred_query = None)

let test_rule2_fires_for_groupby () =
  (* a root groupBy shreds into a rule-2-shaped dictionary: the label
     captures the grouping key, so materialization needs no label domain *)
  let sp = shred_of Fixtures.group_query in
  let has_domain =
    List.exists
      (fun { Nrc.Program.target; _ } ->
        String.length target >= 5 && String.sub target 0 5 = "Q_Dom")
      sp.Trance.Shred_pipeline.mat.Nrc.Program.assignments
  in
  check "rule 2 eliminated the label domain" false has_domain

let test_localized_aggregation () =
  (* Example 1's sumBy must become a per-label (localized) aggregation: a
     SumBy whose keys start with "label" in some materialized dictionary *)
  let sp = shred_of Fixtures.example1 in
  let rec has_localized (e : E.t) =
    match e with
    | E.SumBy { keys = "label" :: _; _ } -> true
    | _ ->
      let found = ref false in
      ignore
        (E.map_children
           (fun sub ->
             if has_localized sub then found := true;
             sub)
           e);
      !found
  in
  check "localized aggregation present" true
    (List.exists
       (fun { Nrc.Program.body; _ } -> has_localized body)
       sp.Trance.Shred_pipeline.mat.Nrc.Program.assignments)

(* ------------------------------------------------------------------ *)
(* The two materialization shapes no corpus, TPC-H or biomed program
   reaches: rule 1 over a dedup body and rule 2 over a sumBy body. The
   inputs gain a customer with two orders on one day and a second row for
   pid 2, so neither the dedup nor the sum is the identity. *)

let rare_shapes =
  [
    ( "rule 1 over dedup",
      "days",
      (function E.Dedup _ -> true | _ -> false),
      "for c in COP union sng(cname := c.cname, days := dedup(for o in \
       c.corders union sng(odate := o.odate)))" );
    ( "rule 2 over sumBy",
      "same",
      (function E.SumBy { keys = "label" :: _; _ } -> true | _ -> false),
      "for p in Part union sng(pname := p.pname, same := sumBy(pname; \
       price)(for q in Part union if q.pid == p.pid then sng(pname := \
       q.pname, price := q.price)))" );
  ]

let rare_inputs =
  let extend extra = function V.Bag items -> V.Bag (items @ extra) | v -> v in
  [
    ( "COP",
      extend
        [ Fixtures.customer "erin"
            [ Fixtures.corder 105 []; Fixtures.corder 105 [ Fixtures.opart 1 1.0 ] ] ]
        Fixtures.cop_value );
    ("Part", extend [ Fixtures.part 2 "gadget" 5.0 ] Fixtures.part_value);
  ]

let test_rare_shape (_, attr, wrapped, src) domain_elimination () =
  let q = Nrc.Parser.expr_of_string src in
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  let expected = Nrc.Eval.eval (Nrc.Eval.env_of_list rare_inputs) q in
  let config = { Trance.Materialize.domain_elimination } in
  let sp, _, actual = Trance.Shred_pipeline.eval_shredded ~config prog rare_inputs in
  Fixtures.check_bag_equal "eval_shredded" expected actual;
  let r =
    Trance.Api.run
      ~config:
        { Trance.Api.default_config with
          cluster = Exec.Config.unbounded;
          materializer = config }
      ~strategy:(Trance.Api.Shredded { unshred = true })
      prog rare_inputs
  in
  (match r.Trance.Api.failure, r.Trance.Api.value with
  | None, Some actual -> Fixtures.check_bag_equal "Shred+Unshred" expected actual
  | Some f, _ -> Alcotest.fail (Trance.Api.failure_message f)
  | None, None -> Alcotest.fail "no value collected");
  let assigned =
    List.map
      (fun { Nrc.Program.target; body } -> (target, body))
      sp.Trance.Shred_pipeline.mat.Nrc.Program.assignments
  in
  check "the dictionary keeps its dedup or sumBy" true
    (wrapped (List.assoc ("Q_D_" ^ attr) assigned));
  check "a label domain exactly without elimination" (not domain_elimination)
    (List.mem_assoc ("Q_Dom_" ^ attr) assigned)

let rare_shape_tests =
  List.concat_map
    (fun ((name, _, _, _) as shape) ->
      [
        Alcotest.test_case name `Quick (test_rare_shape shape true);
        Alcotest.test_case (name ^ ", no domain elim") `Quick
          (test_rare_shape shape false);
      ])
    rare_shapes

(* ------------------------------------------------------------------ *)
(* Multi-assignment pipelines through the shredded route *)

let test_pipeline_program () =
  let prog =
    Nrc.Program.make ~inputs:Fixtures.inputs_ty
      [
        ("Step1", Fixtures.example1);
        ( "Step2",
          B.(
            sum_by ~keys:[ "cname" ] ~values:[ "grand" ]
              (for_ "x" (input "Step1") (fun x ->
                   for_ "o" (x #. "corders") (fun o ->
                       for_ "t" (o #. "oparts") (fun t ->
                           sng
                             (record
                                [ ("cname", x #. "cname"); ("grand", t #. "total") ])))))) );
      ]
  in
  let expected =
    Nrc.Eval.Env.find "Step2" (Nrc.Program.eval prog Fixtures.inputs_val)
  in
  let _, _, actual =
    Trance.Shred_pipeline.eval_shredded prog Fixtures.inputs_val
  in
  Fixtures.check_bag_equal "two-step shredded pipeline" expected actual

(* ------------------------------------------------------------------ *)
(* Property: shredded evaluation agrees on random nested inputs *)

let prop_shredded_random_inputs =
  QCheck.Test.make
    ~name:"random COP values: shredded example1 agrees with reference"
    ~count:(Fixtures.qcheck_count 40)
    (QCheck.make ~print:V.to_string gen_nested_value)
    (fun cop ->
      let inputs = [ ("COP", cop); ("Part", Fixtures.part_value) ] in
      let prog =
        Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q"
          Fixtures.example1
      in
      let expected =
        Nrc.Eval.eval (Nrc.Eval.env_of_list inputs) Fixtures.example1
      in
      let _, _, actual = Trance.Shred_pipeline.eval_shredded prog inputs in
      V.approx_bag_equal expected actual)

(* ------------------------------------------------------------------ *)
(* Property: names that look like generated ones *)

let distinct names = List.length (List.sort_uniq compare names) = List.length names

(* Every dataset the shredded route materializes or loads has a name of
   its own, the loader names the inputs as the compiler does, and
   Shred+Unshred answers like Nrc.Eval. *)
let prop_lookalike_names =
  QCheck.Test.make ~name:"names like generated ones: distinct datasets, Shred+Unshred = Nrc.Eval"
    ~count:(Fixtures.qcheck_count 100)
    (QCheck.make ~print:Qgen.print_lookalike Qgen.gen_lookalike)
    (fun (p, values) ->
      (* a target that takes an input's name changes its type for later
         queries *)
      QCheck.assume
        (match Nrc.Program.typecheck p with _ -> true | exception Nrc.Typecheck.Type_error _ -> false);
      let expected = Nrc.Program.eval_result p values in
      let mat = (Trance.Api.compile_shredded p).pipeline.mat in
      let inputs = List.map fst mat.inputs in
      let env = Trance.Api.load_shredded_inputs ~cluster:Exec.Config.default p.inputs values in
      let r = Trance.Api.run ~strategy:(Trance.Api.Shredded { unshred = true }) p values in
      let loaded = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) env []) in
      let targets = List.map (fun (a : Nrc.Program.assignment) -> a.target) mat.assignments in
      if not (distinct (inputs @ targets)) then
        QCheck.Test.fail_reportf "two datasets share a name:@.%s" (Nrc.Program.to_string mat);
      if loaded <> List.sort compare inputs then
        QCheck.Test.fail_reportf "loaded %s, compiled for %s" (String.concat ", " loaded)
          (String.concat ", " inputs);
      match r.failure, r.value with
      | None, Some v -> V.approx_bag_equal expected v
      | Some f, _ -> QCheck.Test.fail_reportf "failed: %s" (Trance.Api.failure_message f)
      | None, None -> false)

let () =
  Alcotest.run "shred"
    [
      ( "types",
        [
          Alcotest.test_case "T^F (Example 3)" `Quick test_flat_type;
          Alcotest.test_case "dictionary paths" `Quick test_dict_paths;
          Alcotest.test_case "shredded input signature" `Quick
            test_shredded_inputs;
          Alcotest.test_case "recorded dataset roles" `Quick
            test_recorded_roles;
        ] );
      ( "values",
        [
          Alcotest.test_case "shred/unshred roundtrip" `Quick
            test_value_roundtrip;
          QCheck_alcotest.to_alcotest prop_shred_roundtrip;
        ] );
      ("corpus", corpus_tests);
      ( "structure",
        [
          Alcotest.test_case "example1 materialization" `Quick
            test_example1_structure;
          Alcotest.test_case "label domains without elimination" `Quick
            test_example1_no_elim_structure;
          Alcotest.test_case "label reuse aliases dictionaries" `Quick
            test_alias_label_reuse;
          Alcotest.test_case "flat output skips unshredding" `Quick
            test_flat_output_no_unshred;
          Alcotest.test_case "localized aggregation (Example 6)" `Quick
            test_localized_aggregation;
          Alcotest.test_case "rule 2 (filter labels)" `Quick
            test_rule2_fires_for_groupby;
        ] );
      ("rare shapes", rare_shape_tests);
      ( "pipelines",
        [ Alcotest.test_case "two-step program" `Quick test_pipeline_program ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_shredded_random_inputs;
          QCheck_alcotest.to_alcotest prop_lookalike_names ] );
    ]
