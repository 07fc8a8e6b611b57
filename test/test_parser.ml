(** Tests for the NRC surface-syntax lexer and parser: golden parses,
    precedence, error reporting, and the roundtrip property that parsing a
    textual rendering of the fixture queries evaluates identically. *)

module E = Nrc.Expr
module V = Nrc.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Nrc.Parser.expr_of_string

let eval_str ?(env = Fixtures.inputs_val) src =
  Nrc.Eval.eval (Nrc.Eval.env_of_list env) (parse src)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer () =
  let toks s = List.map fst (Nrc.Lexer.tokenize s) in
  check "keywords vs identifiers" true
    (toks "for fortune in input"
    = Nrc.Lexer.[ FOR; IDENT "fortune"; IN; IDENT "input"; EOF ]);
  check "operators" true
    (toks "== != <= >= := ++ && ||"
    = Nrc.Lexer.[ EQ; NE; LE; GE; ASSIGN; PLUSPLUS; AMPAMP; BARBAR; EOF ]);
  check "numbers" true
    (toks "42 3.25 @100" = Nrc.Lexer.[ INT 42; REAL 3.25; DATE 100; EOF ]);
  check "d-identifiers are plain identifiers" true
    (toks "d100 data" = Nrc.Lexer.[ IDENT "d100"; IDENT "data"; EOF ]);
  check "strings with escapes" true
    (toks {|"a\"b"|} = Nrc.Lexer.[ STRING {|a"b|}; EOF ]);
  check "comments" true (toks "1 -- two\n3" = Nrc.Lexer.[ INT 1; INT 3; EOF ]);
  check "reals with exponents" true
    (toks "1.5e3 2E-2 1e+2 7e0"
    = Nrc.Lexer.[ REAL 1500.; REAL 0.02; REAL 100.; REAL 7.; EOF ]);
  check "an e without digits ends the number" true
    (toks "1e 1.5e+ 2ex"
    = Nrc.Lexer.[ INT 1; IDENT "e"; REAL 1.5; IDENT "e"; PLUS; INT 2; IDENT "ex"; EOF ]);
  check "max_int, and min_int's digits" true
    (toks "4611686018427387903 4611686018427387904"
    = Nrc.Lexer.[ INT max_int; INT min_int; EOF ]);
  (* a literal out of range is an error at its offset *)
  List.iter
    (fun (src, at) ->
      match Nrc.Lexer.tokenize src with
      | _ -> Alcotest.failf "%s: expected Lex_error" src
      | exception Nrc.Lexer.Lex_error { pos; _ } -> check_int (src ^ ": error position") at pos)
    [ ("99999999999999999999", 0); ("1 + 4611686018427387905", 4);
      ("x == @99999999999999999999", 5); ("2.5 * 1e400", 6); ("-1.8e308", 1) ];
  (match Nrc.Lexer.tokenize "a # b" with
  | _ -> Alcotest.fail "expected Lex_error"
  | exception Nrc.Lexer.Lex_error { pos; _ } -> check_int "error position" 2 pos)

(* ------------------------------------------------------------------ *)
(* Expression parsing *)

let test_precedence () =
  check "mul binds tighter than add" true
    (V.equal (eval_str "1 + 2 * 3") (V.Int 7));
  check "parens override" true (V.equal (eval_str "(1 + 2) * 3") (V.Int 9));
  check "comparison over arithmetic" true
    (V.equal (eval_str "1 + 1 == 2") (V.Bool true));
  check "and over or" true
    (V.equal (eval_str "true || false && false") (V.Bool true));
  check "not" true (V.equal (eval_str "not false") (V.Bool true));
  check "projection binds tightest" true
    (V.equal
       (Nrc.Eval.eval
          (Nrc.Eval.env_of_list
             [ ("x", V.Tuple [ ("a", V.Int 2) ]) ])
          (parse "x.a * 3"))
       (V.Int 6))

let test_collections () =
  check "singleton" true (V.bag_equal (eval_str "sng(1)") (V.Bag [ V.Int 1 ]));
  check "record singleton" true
    (V.bag_equal
       (eval_str "sng(a := 1, b := \"x\")")
       (V.Bag [ V.Tuple [ ("a", V.Int 1); ("b", V.Str "x") ] ]));
  check "union" true
    (V.bag_equal (eval_str "sng(1) ++ sng(2)") (V.Bag [ V.Int 1; V.Int 2 ]));
  check "empty with type" true
    (V.bag_equal (eval_str "empty(tuple(a: int))") (V.Bag []));
  check "get" true (V.equal (eval_str "get(sng(7))") (V.Int 7));
  check "dedup" true
    (V.bag_equal (eval_str "dedup(sng(1) ++ sng(1))") (V.Bag [ V.Int 1 ]));
  check "for/if" true
    (V.bag_equal
       (eval_str "for p in Part union if p.price > 15.0 then sng(p.pid)")
       (V.Bag [ V.Int 2; V.Int 3; V.Int 4 ]));
  check "let" true
    (V.equal (eval_str "let x := 21 in x + x") (V.Int 42));
  check "if-else" true
    (V.equal (eval_str "if 1 == 2 then 10 else 20") (V.Int 20))

let test_aggregates () =
  let rows = "sng(k := 1, v := 10) ++ sng(k := 1, v := 20) ++ sng(k := 2, v := 5)" in
  check "sumBy" true
    (V.bag_equal
       (eval_str (Printf.sprintf "sumBy(k; v)(%s)" rows))
       (V.Bag
          [
            V.Tuple [ ("k", V.Int 1); ("v", V.Int 30) ];
            V.Tuple [ ("k", V.Int 2); ("v", V.Int 5) ];
          ]));
  check_int "groupBy groups" 2
    (List.length (V.bag_items (eval_str (Printf.sprintf "groupBy(k)(%s)" rows))));
  (* custom group attribute *)
  match V.bag_items (eval_str (Printf.sprintf "groupBy(k; members)(%s)" rows)) with
  | g :: _ -> ignore (V.field g "members")
  | [] -> Alcotest.fail "empty groupBy"

(* the paper's Example 1, as text *)
let example1_src =
  {|
  for cop in COP union
    sng( cname := cop.cname,
         corders := for co in cop.corders union
           sng( odate := co.odate,
                oparts := sumBy(pname; total)(
                  for op in co.oparts union
                  for p in Part union
                  if op.pid == p.pid then
                    sng( pname := p.pname, total := op.qty * p.price ))))
  |}

let test_example1_roundtrip () =
  let parsed = parse example1_src in
  (* identical type and semantics as the builder-constructed fixture *)
  let ty_parsed =
    Nrc.Typecheck.check_source
      (Nrc.Typecheck.env_of_list Fixtures.inputs_ty)
      parsed
  in
  let ty_fixture =
    Nrc.Typecheck.check_source
      (Nrc.Typecheck.env_of_list Fixtures.inputs_ty)
      Fixtures.example1
  in
  check "same type as the builder query" true
    (Nrc.Types.equal ty_parsed ty_fixture);
  Fixtures.check_bag_equal "same semantics"
    (Fixtures.eval_ref Fixtures.example1)
    (Fixtures.eval_ref parsed);
  (* and it goes through the whole shredded pipeline *)
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" parsed in
  let _, _, actual =
    Trance.Shred_pipeline.eval_shredded prog Fixtures.inputs_val
  in
  Fixtures.check_bag_equal "parsed query through shredding"
    (Fixtures.eval_ref parsed) actual

let test_programs () =
  let src =
    {|
    Flat <- for cop in COP union
            for co in cop.corders union
            for op in co.oparts union
              sng( pid := op.pid );
    Result <- dedup(Flat);
    |}
  in
  let prog = Nrc.Parser.program_of_string ~inputs:Fixtures.inputs_ty src in
  check_int "two assignments" 2 (List.length prog.Nrc.Program.assignments);
  Alcotest.(check string) "result name" "Result" (Nrc.Program.result_name prog);
  let expected = Fixtures.eval_ref Fixtures.dedup_query in
  Fixtures.check_bag_equal "program result" expected
    (Nrc.Program.eval_result prog Fixtures.inputs_val)

let test_parse_errors () =
  let fails s =
    match parse s with
    | _ -> Alcotest.failf "expected parse error for %S" s
    | exception Nrc.Parser.Parse_error _ -> ()
  in
  fails "for x in union y";
  fails "sng(a := )";
  fails "1 +";
  fails "sumBy(k)(e)" (* missing value list *);
  fails "(a := 1, 2)";
  fails "if x then";
  (* error positions point at the offending token *)
  match parse "1 + + 2" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Nrc.Parser.Parse_error { pos; _ } ->
    check_int "error position" 4 pos

(* A negative literal stands wherever a constant may, so [to_source]'s
   [-1] reads back; a minus after an operand stays a subtraction. *)
let test_negative_literals () =
  let module E = Nrc.Expr in
  let same src e = check src true (parse src = e) in
  same "-1" (E.int_ (-1));
  same "-2.5" (E.real (-2.5));
  same "1 - -2" (E.Prim (E.Sub, E.int_ 1, E.int_ (-2)));
  same "1 -2" (E.Prim (E.Sub, E.int_ 1, E.int_ 2));
  same "x.a > -1" (E.Cmp (E.Gt, E.Proj (E.Var "x", "a"), E.int_ (-1)));
  same "-3 * 2" (E.Prim (E.Mul, E.int_ (-3), E.int_ 2));
  check "evaluates" true (V.equal (eval_str "-3 + 1") (V.Int (-2)));
  List.iter
    (fun q -> check (Nrc.Parser.to_source q) true (parse (Nrc.Parser.to_source q) = q))
    [ E.int_ (-1); E.real (-2.5); E.real (-0.125);
      E.Cmp (E.Le, E.int_ (-7), E.Prim (E.Sub, E.int_ 0, E.int_ (-7)));
      E.If (E.Cmp (E.Gt, E.Proj (E.Var "x", "a"), E.int_ (-1)), E.int_ (-1), Some (E.int_ 9)) ];
  (match parse "- x" with
  | _ -> Alcotest.fail "expected parse error for - x"
  | exception Nrc.Parser.Parse_error { pos; _ } -> check_int "error position" 2 pos);
  (* min_int prints as its digits after a minus, which read back only so *)
  check "min_int prints" true (Nrc.Parser.to_source (E.int_ min_int) = "-4611686018427387904");
  List.iter
    (fun n -> check (string_of_int n) true (parse (Nrc.Parser.to_source (E.int_ n)) = E.int_ n))
    [ min_int; max_int; min_int + 1; -max_int ];
  List.iter
    (fun (src, at) ->
      match parse src with
      | _ -> Alcotest.failf "%s: expected a parse error" src
      | exception Nrc.Parser.Parse_error { pos; _ } -> check_int (src ^ ": error position") at pos)
    [ ("4611686018427387904", 0); ("1 - 4611686018427387904", 4) ]

(* Reals print with the fewest of 15, 16 and 17 significant digits that
   read back to the same float, in exponent form where [%g] picks it. *)
let test_real_literals () =
  List.iter
    (fun (r, src) ->
      check (src ^ " prints") true (Nrc.Parser.to_source (E.real r) = src);
      check (src ^ " reads back") true (parse src = E.real r))
    [ (1e-5, "1e-05"); (-1e-5, "-1e-05"); (0.1, "0.1"); (0.1 +. 0.2, "0.30000000000000004");
      (2.5, "2.5"); (3., "3.0"); (-0., "-0.0"); (1e15, "1e+15"); (123456789012345., "123456789012345.0");
      (Float.max_float, "1.7976931348623157e+308"); (5e-324, "4.94065645841247e-324") ]

(* property: pretty-printed builder queries of a simple shape re-parse *)
let test_pp_parse_roundtrip_flat () =
  (* the flat corpus queries use only constructs whose printer output is
     re-parseable modulo unicode; check semantics via textual forms *)
  let textual =
    [
      "for p in Part union sng( pid := p.pid, price := p.price )";
      "for p in Part union for q in Part union if p.pid == q.pid then sng( pid := p.pid )";
      "sumBy(pname; price)(for p in Part union sng( pname := p.pname, price := p.price ))";
    ]
  in
  List.iter
    (fun src ->
      let e = parse src in
      let plan_result = Fixtures.eval_plan e in
      Fixtures.check_bag_equal src (Fixtures.eval_ref e) plan_result)
    textual

(* ------------------------------------------------------------------ *)
(* to_source roundtrips *)

let test_to_source_corpus () =
  List.iter
    (fun (name, q) ->
      let src = Nrc.Parser.to_source q in
      let q' = parse src in
      Fixtures.check_bag_equal
        (Printf.sprintf "%s: parse (to_source q) = q" name)
        (Fixtures.eval_ref q) (Fixtures.eval_ref q'))
    Fixtures.corpus

(* a real from 1e-300 to 1e300, of either sign *)
let gen_real =
  QCheck.Gen.(
    map3
      (fun sign m e -> sign *. m *. (10. ** float_of_int e))
      (oneofl [ 1.; -1. ]) (float_range 1. 10.) (int_range (-300) 299))

(* a date over the whole int range, before 1970 included *)
let gen_date = QCheck.Gen.(oneof [ int; return min_int; return max_int; small_signed_int ])

let prop_to_source_roundtrip =
  QCheck.Test.make ~name:"random query, real and date: parse (to_source q) = q"
    ~count:(Fixtures.qcheck_count 200)
    (QCheck.triple Qgen.arbitrary_case
       (QCheck.make ~print:(Printf.sprintf "%h") gen_real)
       (QCheck.make ~print:string_of_int gen_date))
    (fun ((q, inputs), r, d) ->
      let q' = parse (Nrc.Parser.to_source q) in
      let roundtrips c = parse (Nrc.Parser.to_source c) = c in
      V.approx_bag_equal
        (Nrc.Eval.eval (Nrc.Eval.env_of_list inputs) q)
        (Nrc.Eval.eval (Nrc.Eval.env_of_list inputs) q')
      && (roundtrips (E.real r)
         || QCheck.Test.fail_reportf "%h prints as %s" r (Nrc.Parser.to_source (E.real r)))
      && (roundtrips (E.date d)
         || QCheck.Test.fail_reportf "date %d prints as %s" d (Nrc.Parser.to_source (E.date d))))

(* ------------------------------------------------------------------ *)
(* Text-level fuzzing. A generated program's source text, with tokens
   deleted, duplicated or swapped and boundary literals spliced in, must
   lex, parse, type and run on every route or fail typed — a lex, parse
   or type error, or a run that reports its failure in words — and never
   raise. *)

type edit =
  | Delete of int
  | Duplicate of int
  | Swap of int
  | Splice of int * string
  | Replace of int * string  (** a literal by another *)

let boundary_literals =
  [ "99999999999999999999"; "@-1"; "1e400"; "-4611686018427387904"; "4611686018427387904";
    "@99999999999999999999"; "-0.0"; "1e-400"; "0"; "\"\"" ]

let gen_edits =
  QCheck.Gen.(
    list_size (int_range 1 2)
      (let* i = int_bound 1000 in
       frequency
         [ (1, return (Delete i)); (1, return (Duplicate i)); (1, return (Swap i));
           (1, map (fun lit -> Splice (i, lit)) (oneofl boundary_literals));
           (3, map (fun lit -> Replace (i, lit)) (oneofl boundary_literals)) ]))

(* [edit] on the [i mod n]-th of the text's [n] tokens — of its literals
   for [Replace] — each spanning from its offset to the next token's, so
   whitespace moves with the token before it; a text that no longer lexes
   stays as it is *)
let apply_edit text edit =
  match Nrc.Lexer.tokenize text with
  | exception Nrc.Lexer.Lex_error _ -> text
  | toks ->
    let starts = Array.of_list (List.map snd toks) in
    let n = Array.length starts - 1 (* the last is EOF's *) in
    let literals =
      Array.of_list
        (List.concat
           (List.mapi
              (fun i (t, _) ->
                match (t : Nrc.Lexer.token) with
                | INT _ | REAL _ | DATE _ | STRING _ -> [ i ]
                | _ -> [])
              toks))
    in
    let piece i = String.sub text starts.(i) (starts.(i + 1) - starts.(i)) in
    let before i = String.sub text 0 starts.(i) in
    let after i = String.sub text starts.(i + 1) (String.length text - starts.(i + 1)) in
    if n = 0 then text
    else (
      match edit with
      | Delete i -> before (i mod n) ^ after (i mod n)
      | Duplicate i -> before (i mod n) ^ piece (i mod n) ^ piece (i mod n) ^ after (i mod n)
      | Swap i ->
        let i = i mod n in
        if i + 1 = n then text else before i ^ piece (i + 1) ^ piece i ^ after (i + 1)
      | Splice (i, lit) -> before (i mod n) ^ " " ^ lit ^ " " ^ piece (i mod n) ^ after (i mod n)
      | Replace (_, _) when literals = [||] -> text
      | Replace (i, lit) ->
        let i = literals.(i mod Array.length literals) in
        before i ^ lit ^ " " ^ after i)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* a failure text that is an exception's constructor, not a message *)
let raw_exception msg =
  List.exists
    (contains msg)
    [ "Not_found"; "Invalid_argument(\""; "Failure(\""; "Division_by_zero"; "Stack_overflow";
      "Match_failure"; "Assert_failure"; "_error(\""; "Unsupported(\"" ]

let prop_fuzzed_text =
  let cluster = { Exec.Config.unbounded with partitions = 4; workers = 2 } in
  let config = { Trance.Api.default_config with cluster } in
  QCheck.Test.make ~name:"mutated program text: lex, parse, type and run answer or fail typed"
    ~count:(Fixtures.qcheck_count 300)
    (QCheck.pair Qgen.arbitrary_case (QCheck.make gen_edits))
    (fun ((q, inputs), edits) ->
      let text =
        List.fold_left apply_edit
          (Nrc.Parser.program_to_source (Nrc.Program.of_expr ~inputs:Qgen.inputs_ty ~name:"Q" q))
          edits
      in
      let raised what e = QCheck.Test.fail_reportf "%s raised %s on:@.%s" what (Printexc.to_string e) text in
      match Nrc.Parser.program_of_string ~inputs:Qgen.inputs_ty text with
      | exception (Nrc.Lexer.Lex_error _ | Nrc.Parser.Parse_error _) -> true
      | exception e -> raised "parsing" e
      | prog -> (
        match Nrc.Program.typecheck ~source:true prog with
        | exception Nrc.Typecheck.Type_error _ -> true
        | exception e -> raised "type checking" e
        | _ ->
          List.for_all
            (fun strategy ->
              match Trance.Api.run ~config ~strategy prog inputs with
              | exception e -> raised (Trance.Api.strategy_name strategy) e
              | { failure = Some f; _ } when raw_exception (Trance.Api.failure_message f) ->
                QCheck.Test.fail_reportf "%s fails with %s on:@.%s"
                  (Trance.Api.strategy_name strategy) (Trance.Api.failure_message f) text
              | _ -> true)
            Trance.Api.
              [ Standard; Shredded { unshred = false }; Shredded { unshred = true }; SparkSQL_proxy ]))

let test_program_to_source () =
  let prog =
    Nrc.Program.make ~inputs:Fixtures.inputs_ty
      [ ("A", Fixtures.dedup_query); ("B", Fixtures.nested_to_flat) ]
  in
  let src = Nrc.Parser.program_to_source prog in
  let prog' = Nrc.Parser.program_of_string ~inputs:Fixtures.inputs_ty src in
  Fixtures.check_bag_equal "program roundtrip"
    (Nrc.Program.eval_result prog Fixtures.inputs_val)
    (Nrc.Program.eval_result prog' Fixtures.inputs_val)

let test_type_to_source () =
  let t = Fixtures.cop_ty in
  let src = Nrc.Parser.type_to_source t in
  (* re-parse through empty() *)
  let e = parse (Printf.sprintf "empty(%s)" (Nrc.Parser.type_to_source (Nrc.Types.element t))) in
  (match e with
  | Nrc.Expr.Empty t' ->
    check "element type roundtrips" true (Nrc.Types.equal t' (Nrc.Types.element t))
  | _ -> Alcotest.fail "expected Empty");
  check "bag type renders" true (String.length src > 0)

let () =
  Alcotest.run "parser"
    [
      ("lexer", [ Alcotest.test_case "tokens" `Quick test_lexer ]);
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "collections" `Quick test_collections;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "negative literals" `Quick test_negative_literals;
          Alcotest.test_case "real literals" `Quick test_real_literals;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "example1 roundtrip" `Quick
            test_example1_roundtrip;
          Alcotest.test_case "programs" `Quick test_programs;
          Alcotest.test_case "parsed queries compile" `Quick
            test_pp_parse_roundtrip_flat;
        ] );
      ("errors", [ Alcotest.test_case "diagnostics" `Quick test_parse_errors ]);
      ( "to_source",
        [
          Alcotest.test_case "corpus roundtrip" `Quick test_to_source_corpus;
          QCheck_alcotest.to_alcotest prop_to_source_roundtrip;
          QCheck_alcotest.to_alcotest prop_fuzzed_text;
          Alcotest.test_case "program roundtrip" `Quick test_program_to_source;
          Alcotest.test_case "type roundtrip" `Quick test_type_to_source;
        ] );
    ]
