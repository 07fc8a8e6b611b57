(** Tests for the Spark code generator: structural golden checks on the
    emitted Scala for the paper's running example and the whole corpus
    (every operator the plan contains must surface as its Spark idiom), and
    well-formedness invariants (balanced parens, every val used defined). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let count_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if m = 0 then 0 else go 0 0

let gen q =
  let plan =
    Plan.Optimize.optimize (Trance.Unnest.translate ~tenv:Fixtures.inputs_ty q)
  in
  Trance.Spark_codegen.plan_to_scala ~name:"Q" plan

let test_example1_scala () =
  let scala = gen Fixtures.example1 in
  (* the Figure 3 plan in Spark terms *)
  check "outer unnests are explode_outer" true
    (count_substring scala "explode_outer" = 2);
  check "left outer join" true (contains scala "\"left_outer\"");
  check "unique ids" true (contains scala "monotonically_increasing_id()");
  check "Gamma-plus is sum(when(...))" true (contains scala "sum(when(");
  check "Gamma-union is collect_list" true (contains scala "collect_list(");
  check "scans of both inputs" true
    (contains scala "COP.select" && contains scala "Part.select");
  check "final assignment" true (contains scala "val Q = ")

let test_flat_join_scala () =
  let scala =
    gen
      Nrc.Builder.(
        for_ "p" (input "Part") (fun p ->
            for_ "q" (input "Part") (fun q ->
                where (p #. "pid" == q #. "pid")
                  (sng (record [ ("pid", p #. "pid") ])))))
  in
  check "inner join" true (contains scala "\"inner\"");
  check "equality condition uses ===" true (contains scala "===");
  check "no outer machinery" false
    (contains scala "explode_outer" || contains scala "left_outer")

(* a real constant stays a real, with every digit it needs to read back *)
let test_real_literals () =
  let scala r =
    gen
      Nrc.Builder.(
        for_ "p" (input "Part") (fun p ->
            where (p #. "price" == real r) (sng (record [ ("pid", p #. "pid") ]))))
  in
  check "1.5e3 is lit(1500.0)" true (contains (scala 1.5e3) "lit(1500.0)");
  check "0.1234567 keeps its digits" true (contains (scala 0.1234567) "lit(0.1234567)")

let test_shredded_program_scala () =
  let prog =
    Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.example1
  in
  let sc = Trance.Api.compile_shredded prog in
  let scala = Trance.Spark_codegen.assignments_to_scala sc.Trance.Api.plans in
  check "top bag emitted" true (contains scala "---- Q_F ----");
  check "dictionaries emitted" true (contains scala "---- Q_D_corders ----");
  check "label partitioning via repartition" true (contains scala "repartition(");
  check "localized aggregation groups by label" true
    (contains scala "$\"label\"")

(* a cogroup the optimizer introduced is one val, not a join and a
   groupBy *)
let test_cogroup_scala () =
  let prog =
    Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.flat_to_nested
  in
  let plan = List.assoc "Q" (Trance.Api.compile_standard prog) in
  let scala = Trance.Spark_codegen.plan_to_scala ~name:"Q" plan in
  check "plan holds a cogroup" true
    (Plan.Op.count (function Plan.Op.Cogroup _ -> true | _ -> false) plan > 0);
  check "groupByKey(...).cogroup(...)" true
    (contains scala ".groupByKey(" && contains scala ".cogroup(");
  check "no flattened join" false (contains scala ".join(");
  check_int "one val per operator" (Plan.Op.count (fun _ -> true) plan)
    (count_substring scala "val ds")

let balanced s =
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      if c = '(' then incr depth
      else if c = ')' then begin
        decr depth;
        if !depth < 0 then ok := false
      end)
    s;
  !ok && !depth = 0

let test_corpus_wellformed () =
  List.iter
    (fun (name, q) ->
      let scala = gen q in
      check (name ^ " parens balanced") true (balanced scala);
      (* every referenced dsN is defined before use *)
      let lines = String.split_on_char '\n' scala in
      let defined = Hashtbl.create 16 in
      List.iter
        (fun line ->
          (* uses *)
          Hashtbl.iter
            (fun _ _ -> ())
            defined;
          (if String.length line > 4 && String.sub line 0 4 = "val " then
             match String.index_opt line '=' with
             | Some eq ->
               let lhs = String.trim (String.sub line 4 (eq - 4)) in
               (* all dsN mentioned on the rhs must already be defined *)
               let rhs = String.sub line eq (String.length line - eq) in
               let rec scan i =
                 if i + 2 < String.length rhs then
                   if rhs.[i] = 'd' && rhs.[i + 1] = 's' then begin
                     let j = ref (i + 2) in
                     while
                       !j < String.length rhs
                       && rhs.[!j] >= '0'
                       && rhs.[!j] <= '9'
                     do
                       incr j
                     done;
                     if !j > i + 2 then begin
                       let v = String.sub rhs i (!j - i) in
                       check
                         (Printf.sprintf "%s: %s defined before use" name v)
                         true (Hashtbl.mem defined v)
                     end;
                     scan !j
                   end
                   else scan (i + 1)
               in
               scan 0;
               Hashtbl.replace defined lhs ()
             | None -> ()))
        lines;
      check_int (name ^ " one result binding") 1 (count_substring scala "val Q = "))
    Fixtures.corpus

let () =
  Alcotest.run "codegen"
    [
      ( "spark",
        [
          Alcotest.test_case "example1 structure" `Quick test_example1_scala;
          Alcotest.test_case "flat join" `Quick test_flat_join_scala;
          Alcotest.test_case "real literals" `Quick test_real_literals;
          Alcotest.test_case "shredded program" `Quick
            test_shredded_program_scala;
          Alcotest.test_case "corpus well-formed" `Quick test_corpus_wellformed;
          Alcotest.test_case "cogroup" `Quick test_cogroup_scala;
        ] );
    ]
