(** Recursive-descent parser for an ASCII surface syntax of NRC, so queries
    can be written as text (CLI, tests, docs) instead of through the
    builder:

    {v
      for cop in COP union
        sng( cname := cop.cname,
             total := sumBy(pname; total)(
               for co in cop.corders union
               for op in co.oparts union
               for p in Part union
               if op.pid == p.pid then
                 sng( pname := p.pname, total := op.qty * p.price )) )
    v}

    Grammar (precedence climbing, loosest first):

    {v
      expr     := for x in expr union expr
                | if expr then expr [else expr]
                | let x := expr in expr
                | or
      or       := and   ( (or | "||") and )*
      and      := cmp   ( (and | "&&") cmp )*
      cmp      := add   [ (== | != | < | <= | > | >=) add ]
      add      := mul   ( (+ | - | ++) mul )*
      mul      := unary ( ( "*" | "/" ) unary )*
      unary    := not unary | postfix
      postfix  := atom ( . ident )*
      atom     := [-] literal | ident | "(" expr ")"
                | sng "(" (expr | fields) ")"          -- singleton / record
                | get "(" expr ")" | dedup "(" expr ")"
                | sumBy "(" idents ";" idents ")" "(" expr ")"
                | groupBy "(" idents ")" "(" expr ")"
                | empty "(" type ")"
      type     := int|real|string|bool|date
                | bag "(" type ")" | tuple "(" (ident ":" type),* ")"
      program  := (ident "<-" expr ";")+ | expr
      literal  := d | d[.d][(e|E)[+|-]d] | "string" | @d | true | false
    v}

    [sng(a := e, ...)] builds a singleton bag of a record; a record by
    itself is written [(a := e, ...)]. *)

open Lexer

exception Parse_error of { pos : int; message : string }

type state = { mutable toks : (token * int) list }

let peek st = match st.toks with (t, p) :: _ -> (t, p) | [] -> (EOF, 0)

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let error st fmt =
  let _, pos = peek st in
  Fmt.kstr (fun message -> raise (Parse_error { pos; message })) fmt

let expect st t =
  let t', _ = peek st in
  if t' = t then advance st
  else error st "expected %s, found %s" (token_to_string t) (token_to_string t')

let ident st =
  match peek st with
  | IDENT x, _ ->
    advance st;
    x
  | t, _ -> error st "expected an identifier, found %s" (token_to_string t)

(* ------------------------------------------------------------------ *)
(* Types *)

let rec parse_type st : Types.t =
  match peek st with
  | TINT, _ -> advance st; Types.int_
  | TREAL, _ -> advance st; Types.real
  | TSTRING, _ -> advance st; Types.string_
  | TBOOL, _ -> advance st; Types.bool_
  | TDATE, _ -> advance st; Types.date
  | TBAG, _ ->
    advance st;
    expect st LPAREN;
    let t = parse_type st in
    expect st RPAREN;
    Types.bag t
  | TTUPLE, _ ->
    advance st;
    expect st LPAREN;
    let rec fields acc =
      let name = ident st in
      expect st COLON;
      let t = parse_type st in
      match peek st with
      | COMMA, _ ->
        advance st;
        fields ((name, t) :: acc)
      | _ -> List.rev ((name, t) :: acc)
    in
    let fs = match peek st with RPAREN, _ -> [] | _ -> fields [] in
    expect st RPAREN;
    Types.tuple fs
  | t, _ -> error st "expected a type, found %s" (token_to_string t)

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec parse_expr st : Expr.t =
  match peek st with
  | FOR, _ ->
    advance st;
    let x = ident st in
    expect st IN;
    let src = parse_expr_no_union st in
    expect st UNION;
    let body = parse_expr st in
    Expr.ForUnion (x, src, body)
  | IF, _ ->
    advance st;
    let c = parse_or st in
    expect st THEN;
    let t = parse_expr st in
    (match peek st with
    | ELSE, _ ->
      advance st;
      let e = parse_expr st in
      Expr.If (c, t, Some e)
    | _ -> Expr.If (c, t, None))
  | LET, _ ->
    advance st;
    let x = ident st in
    expect st ASSIGN;
    let e1 = parse_expr_no_union st in
    expect st IN;
    let e2 = parse_expr st in
    Expr.Let (x, e1, e2)
  | _ -> parse_or st

(* generator sources and let bodies stop before a top-level 'union'/'in' *)
and parse_expr_no_union st = parse_or st

and parse_or st =
  let rec go acc =
    match peek st with
    | (OR_KW | BARBAR), _ ->
      advance st;
      go (Expr.Logic (Expr.Or, acc, parse_and st))
    | _ -> acc
  in
  go (parse_and st)

and parse_and st =
  let rec go acc =
    match peek st with
    | (AND_KW | AMPAMP), _ ->
      advance st;
      go (Expr.Logic (Expr.And, acc, parse_cmp st))
    | _ -> acc
  in
  go (parse_cmp st)

and parse_cmp st =
  let lhs = parse_add st in
  let mk op =
    advance st;
    Expr.Cmp (op, lhs, parse_add st)
  in
  match peek st with
  | EQ, _ -> mk Expr.Eq
  | NE, _ -> mk Expr.Ne
  | LT, _ -> mk Expr.Lt
  | LE, _ -> mk Expr.Le
  | GT, _ -> mk Expr.Gt
  | GE, _ -> mk Expr.Ge
  | _ -> lhs

and parse_add st =
  let rec go acc =
    match peek st with
    | PLUS, _ ->
      advance st;
      go (Expr.Prim (Expr.Add, acc, parse_mul st))
    | MINUS, _ ->
      advance st;
      go (Expr.Prim (Expr.Sub, acc, parse_mul st))
    | PLUSPLUS, _ ->
      advance st;
      go (Expr.Union (acc, parse_mul st))
    | _ -> acc
  in
  go (parse_mul st)

and parse_mul st =
  let rec go acc =
    match peek st with
    | STAR, _ ->
      advance st;
      go (Expr.Prim (Expr.Mul, acc, parse_unary st))
    | SLASH, _ ->
      advance st;
      go (Expr.Prim (Expr.Div, acc, parse_unary st))
    | _ -> acc
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | NOT_KW, _ ->
    advance st;
    Expr.Not (parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec go acc =
    match peek st with
    | DOT, _ ->
      advance st;
      go (Expr.Proj (acc, ident st))
    | _ -> acc
  in
  go (parse_atom st)

and parse_fields st : (string * Expr.t) list =
  (* assumes at least one [ident := expr] *)
  let rec fields acc =
    let name = ident st in
    expect st ASSIGN;
    let e = parse_expr st in
    match peek st with
    | COMMA, _ ->
      advance st;
      fields ((name, e) :: acc)
    | _ -> List.rev ((name, e) :: acc)
  in
  fields []

and parse_ident_list st =
  let rec go acc =
    let x = ident st in
    match peek st with
    | COMMA, _ ->
      advance st;
      go (x :: acc)
    | _ -> List.rev (x :: acc)
  in
  go []

and parse_atom st =
  match peek st with
  | INT i, _ ->
    (* only [-min_int]'s digits read negative; they need a unary minus *)
    if i < 0 then error st "integer literal out of range";
    advance st;
    Expr.int_ i
  | REAL r, _ -> advance st; Expr.real r
  (* a negative literal, as [to_source] prints one *)
  | MINUS, _ -> (
    advance st;
    match peek st with
    | INT i, _ -> advance st; Expr.int_ (-i)
    | REAL r, _ -> advance st; Expr.real (-.r)
    | t, _ -> error st "unexpected %s after -" (token_to_string t))
  | STRING s, _ -> advance st; Expr.str s
  | DATE d, _ -> advance st; Expr.date d
  | TRUE, _ -> advance st; Expr.bool_ true
  | FALSE, _ -> advance st; Expr.bool_ false
  | IDENT x, _ -> advance st; Expr.Var x
  | LPAREN, _ -> (
    advance st;
    (* record if we see [ident :=], otherwise parenthesized expression *)
    match st.toks with
    | (IDENT _, _) :: (ASSIGN, _) :: _ ->
      let fs = parse_fields st in
      expect st RPAREN;
      Expr.Record fs
    | (RPAREN, _) :: _ ->
      advance st;
      Expr.Record []
    | _ ->
      let e = parse_expr st in
      expect st RPAREN;
      e)
  | SNG, _ -> (
    advance st;
    expect st LPAREN;
    match st.toks with
    | (IDENT _, _) :: (ASSIGN, _) :: _ ->
      let fs = parse_fields st in
      expect st RPAREN;
      Expr.Singleton (Expr.Record fs)
    | _ ->
      let e = parse_expr st in
      expect st RPAREN;
      Expr.Singleton e)
  | GET, _ ->
    advance st;
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    Expr.Get e
  | DEDUP, _ ->
    advance st;
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    Expr.Dedup e
  | SUMBY, _ ->
    advance st;
    expect st LPAREN;
    let keys = parse_ident_list st in
    expect st SEMI;
    let values = parse_ident_list st in
    expect st RPAREN;
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    Expr.SumBy { input = e; keys; values }
  | GROUPBY, _ ->
    advance st;
    expect st LPAREN;
    let keys = parse_ident_list st in
    let group_attr =
      match peek st with
      | SEMI, _ ->
        advance st;
        ident st
      | _ -> "group"
    in
    expect st RPAREN;
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    Expr.GroupBy { input = e; keys; group_attr }
  | EMPTY, _ ->
    advance st;
    expect st LPAREN;
    let t = parse_type st in
    expect st RPAREN;
    Expr.Empty t
  | t, _ -> error st "unexpected %s" (token_to_string t)

(* ------------------------------------------------------------------ *)
(* Entry points *)

let expr_of_string (src : string) : Expr.t =
  let st = { toks = tokenize src } in
  let e = parse_expr st in
  expect st EOF;
  e

(** A program is either a single expression, or assignments
    [x <- expr ;]+ (the last assignment is the result). *)
let assignments_of_string (src : string) : (string * Expr.t) list =
  let st = { toks = tokenize src } in
  match st.toks with
  | (IDENT _, _) :: (LARROW, _) :: _ ->
    let rec go acc =
      match peek st with
      | EOF, _ -> List.rev acc
      | _ ->
        let x = ident st in
        expect st LARROW;
        let e = parse_expr st in
        (match peek st with SEMI, _ -> advance st | _ -> ());
        go ((x, e) :: acc)
    in
    go []
  | _ ->
    let e = parse_expr st in
    expect st EOF;
    [ ("Q", e) ]

let program_of_string ~inputs (src : string) : Program.t =
  Program.make ~inputs (assignments_of_string src)

(* ------------------------------------------------------------------ *)
(* Rendering expressions back to parseable source text (inverse of
   [expr_of_string] up to semantics; validated by a roundtrip property in
   the test suite). Only label-free NRC can be rendered. *)

let rec type_to_source (t : Types.t) : string =
  match t with
  | Types.TScalar s -> Types.scalar_to_string s
  | Types.TBag inner -> Printf.sprintf "bag(%s)" (type_to_source inner)
  | Types.TTuple fields ->
    Printf.sprintf "tuple(%s)"
      (String.concat ", "
         (List.map (fun (n, ft) -> Printf.sprintf "%s: %s" n (type_to_source ft)) fields))
  | Types.TLabel ->
    invalid_arg "type_to_source: shredding types have no surface syntax"

let rec to_source (e : Expr.t) : string =
  match e with
  | Expr.Const (Expr.CInt i) -> string_of_int i
  | Expr.Const (Expr.CReal r) -> Value.real_to_string r
  | Expr.Const (Expr.CString s) -> Printf.sprintf "%S" s
  | Expr.Const (Expr.CBool b) -> string_of_bool b
  | Expr.Const (Expr.CDate d) -> Printf.sprintf "@%d" d
  | Expr.Var x -> x
  | Expr.Proj (e1, a) -> Printf.sprintf "%s.%s" (atom e1) a
  | Expr.Record [] -> "()"
  | Expr.Record fields ->
    Printf.sprintf "(%s)"
      (String.concat ", "
         (List.map (fun (n, x) -> Printf.sprintf "%s := %s" n (to_source x)) fields))
  | Expr.Empty t -> Printf.sprintf "empty(%s)" (type_to_source t)
  | Expr.Singleton (Expr.Record fields) when fields <> [] ->
    Printf.sprintf "sng(%s)"
      (String.concat ", "
         (List.map (fun (n, x) -> Printf.sprintf "%s := %s" n (to_source x)) fields))
  | Expr.Singleton e1 -> Printf.sprintf "sng(%s)" (to_source e1)
  | Expr.Get e1 -> Printf.sprintf "get(%s)" (to_source e1)
  | Expr.ForUnion (x, e1, e2) ->
    Printf.sprintf "for %s in %s union %s" x (atom e1) (to_source e2)
  | Expr.Union (a, b) ->
    (* ++ lives at the additive level: binder forms need parentheses *)
    Printf.sprintf "(%s ++ %s)" (operand a) (operand b)
  | Expr.Let (x, e1, e2) ->
    Printf.sprintf "let %s := %s in %s" x (atom e1) (to_source e2)
  | Expr.Prim (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (to_source a) (Expr.prim_to_string op) (to_source b)
  | Expr.Cmp (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (to_source a) (Expr.cmp_to_string op) (to_source b)
  | Expr.Logic (Expr.And, a, b) ->
    Printf.sprintf "(%s && %s)" (to_source a) (to_source b)
  | Expr.Logic (Expr.Or, a, b) ->
    Printf.sprintf "(%s || %s)" (to_source a) (to_source b)
  | Expr.Not a -> Printf.sprintf "not %s" (atom a)
  | Expr.If (c, t, None) ->
    Printf.sprintf "if %s then %s" (to_source c) (to_source t)
  | Expr.If (c, t, Some e2) ->
    Printf.sprintf "if %s then (%s) else (%s)" (to_source c) (to_source t)
      (to_source e2)
  | Expr.Dedup e1 -> Printf.sprintf "dedup(%s)" (to_source e1)
  | Expr.GroupBy { input; keys; group_attr } ->
    Printf.sprintf "groupBy(%s; %s)(%s)" (String.concat ", " keys) group_attr
      (to_source input)
  | Expr.SumBy { input; keys; values } ->
    Printf.sprintf "sumBy(%s; %s)(%s)" (String.concat ", " keys)
      (String.concat ", " values) (to_source input)
  | Expr.NewLabel _ | Expr.MatchLabel _ | Expr.MatLookup _ ->
    invalid_arg "to_source: shredding constructs have no surface syntax"

and operand e =
  match e with
  | Expr.ForUnion _ | Expr.If _ | Expr.Let _ -> Printf.sprintf "(%s)" (to_source e)
  | _ -> to_source e

and atom e =
  match e with
  | Expr.Var _ | Expr.Proj _ | Expr.Const _ | Expr.Singleton _ | Expr.Get _
  | Expr.Dedup _ | Expr.GroupBy _ | Expr.SumBy _ | Expr.Empty _ | Expr.Record _
    ->
    to_source e
  | _ -> Printf.sprintf "(%s)" (to_source e)

let program_to_source (p : Program.t) : string =
  String.concat "\n"
    (List.map
       (fun { Program.target; body } ->
         Printf.sprintf "%s <- %s;" target (to_source body))
       p.Program.assignments)
