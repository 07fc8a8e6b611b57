(** Hand-written lexer for the NRC surface syntax (see {!Parser}). *)

type token =
  | IDENT of string
  | INT of int
  | REAL of float
  | STRING of string
  | DATE of int (* @123 *)
  (* keywords *)
  | FOR | IN | UNION | IF | THEN | ELSE | LET | TRUE | FALSE
  | SNG | GET | DEDUP | SUMBY | GROUPBY | EMPTY | AND_KW | OR_KW | NOT_KW
  | TBAG | TTUPLE | TINT | TREAL | TSTRING | TBOOL | TDATE
  (* punctuation *)
  | LPAREN | RPAREN | LBRACE | RBRACE
  | COMMA | SEMI | DOT | COLON | ASSIGN (* := *)
  | EQ (* == *) | NE | LT | LE | GT | GE
  | PLUS | MINUS | STAR | SLASH | PLUSPLUS (* ++ *)
  | AMPAMP | BARBAR
  | LARROW (* <= for programs: x <= e ; *)
  | EOF

exception Lex_error of { pos : int; message : string }

let keyword = function
  | "for" -> Some FOR
  | "in" -> Some IN
  | "union" -> Some UNION
  | "if" -> Some IF
  | "then" -> Some THEN
  | "else" -> Some ELSE
  | "let" -> Some LET
  | "true" -> Some TRUE
  | "false" -> Some FALSE
  | "sng" -> Some SNG
  | "get" -> Some GET
  | "dedup" -> Some DEDUP
  | "sumBy" -> Some SUMBY
  | "groupBy" -> Some GROUPBY
  | "empty" -> Some EMPTY
  | "and" -> Some AND_KW
  | "or" -> Some OR_KW
  | "not" -> Some NOT_KW
  | "bag" -> Some TBAG
  | "tuple" -> Some TTUPLE
  | "int" -> Some TINT
  | "real" -> Some TREAL
  | "string" -> Some TSTRING
  | "bool" -> Some TBOOL
  | "date" -> Some TDATE
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** Tokenize a whole string. Comments run from [--] to end of line. *)
let tokenize (src : string) : (token * int) list =
  let n = String.length src in
  let toks = ref [] in
  let push pos t = toks := (t, pos) :: !toks in
  let rec digits j = if j < n && is_digit src.[j] then digits (j + 1) else j in
  let out_of_range pos what text =
    raise (Lex_error { pos; message = Printf.sprintf "%s literal %s out of range" what text })
  in
  let rec go i =
    if i >= n then push i EOF
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '-' ->
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      | '(' -> push i LPAREN; go (i + 1)
      | ')' -> push i RPAREN; go (i + 1)
      | '{' -> push i LBRACE; go (i + 1)
      | '}' -> push i RBRACE; go (i + 1)
      | ',' -> push i COMMA; go (i + 1)
      | ';' -> push i SEMI; go (i + 1)
      | '.' -> push i DOT; go (i + 1)
      | ':' when i + 1 < n && src.[i + 1] = '=' -> push i ASSIGN; go (i + 2)
      | ':' -> push i COLON; go (i + 1)
      | '=' when i + 1 < n && src.[i + 1] = '=' -> push i EQ; go (i + 2)
      | '!' when i + 1 < n && src.[i + 1] = '=' -> push i NE; go (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '=' -> push i LE; go (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '-' -> push i LARROW; go (i + 2)
      | '<' -> push i LT; go (i + 1)
      | '>' when i + 1 < n && src.[i + 1] = '=' -> push i GE; go (i + 2)
      | '>' -> push i GT; go (i + 1)
      | '+' when i + 1 < n && src.[i + 1] = '+' -> push i PLUSPLUS; go (i + 2)
      | '+' -> push i PLUS; go (i + 1)
      | '*' -> push i STAR; go (i + 1)
      | '/' -> push i SLASH; go (i + 1)
      | '&' when i + 1 < n && src.[i + 1] = '&' -> push i AMPAMP; go (i + 2)
      | '|' when i + 1 < n && src.[i + 1] = '|' -> push i BARBAR; go (i + 2)
      | '-' -> push i MINUS; go (i + 1)
      | '"' ->
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then
            raise (Lex_error { pos = i; message = "unterminated string" })
          else if src.[j] = '"' then j + 1
          else if src.[j] = '\\' && j + 1 < n then begin
            (match src.[j + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | c -> Buffer.add_char buf c);
            str (j + 2)
          end
          else begin
            Buffer.add_char buf src.[j];
            str (j + 1)
          end
        in
        let j = str (i + 1) in
        push i (STRING (Buffer.contents buf));
        go j
      | '@' when (i + 1 < n && is_digit src.[i + 1])
                 || (i + 2 < n && src.[i + 1] = '-' && is_digit src.[i + 2]) ->
        (* @123 or @-123 date literal *)
        let j = digits (i + 2) in
        (match int_of_string_opt (String.sub src (i + 1) (j - i - 1)) with
        | Some d -> push i (DATE d)
        | None -> out_of_range i "date" (String.sub src i (j - i)));
        go j
      | c when is_digit c ->
        (* d[.d][(e|E)[+|-]d] *)
        let j = digits i in
        let at j c = j < n && src.[j] = c in
        let frac = if at j '.' && j + 1 < n && is_digit src.[j + 1] then digits (j + 1) else j in
        let exp =
          if at frac 'e' || at frac 'E' then
            let k = if at (frac + 1) '+' || at (frac + 1) '-' then frac + 2 else frac + 1 in
            if k < n && is_digit src.[k] then digits k else frac
          else frac
        in
        let text = String.sub src i (exp - i) in
        if exp > j then begin
          let r = float_of_string text in
          if Float.is_finite r then push i (REAL r) else out_of_range i "real" text
        end
        else begin
          match int_of_string_opt text with
          | Some k -> push i (INT k)
          | None ->
            (* the magnitude of [min_int] reads as [min_int], which the
               parser takes only after a unary minus *)
            if int_of_string_opt ("-" ^ text) = Some min_int then push i (INT min_int)
            else out_of_range i "integer" text
        end;
        go exp
      | c when is_ident_start c ->
        let rec idend j = if j < n && is_ident_char src.[j] then idend (j + 1) else j in
        let j = idend i in
        let word = String.sub src i (j - i) in
        (match keyword word with
        | Some t -> push i t
        | None -> push i (IDENT word));
        go j
      | c ->
        raise
          (Lex_error
             { pos = i; message = Printf.sprintf "unexpected character %C" c })
  in
  go 0;
  List.rev !toks

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT i -> string_of_int i
  | REAL r -> string_of_float r
  | STRING s -> Printf.sprintf "%S" s
  | DATE d -> Printf.sprintf "@%d" d
  | FOR -> "for" | IN -> "in" | UNION -> "union" | IF -> "if" | THEN -> "then"
  | ELSE -> "else" | LET -> "let" | TRUE -> "true" | FALSE -> "false"
  | SNG -> "sng" | GET -> "get" | DEDUP -> "dedup" | SUMBY -> "sumBy"
  | GROUPBY -> "groupBy" | EMPTY -> "empty" | AND_KW -> "and" | OR_KW -> "or"
  | NOT_KW -> "not" | TBAG -> "bag" | TTUPLE -> "tuple" | TINT -> "int"
  | TREAL -> "real" | TSTRING -> "string" | TBOOL -> "bool" | TDATE -> "date"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | COMMA -> "," | SEMI -> ";" | DOT -> "." | COLON -> ":" | ASSIGN -> ":="
  | EQ -> "==" | NE -> "!=" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PLUSPLUS -> "++"
  | AMPAMP -> "&&" | BARBAR -> "||" | LARROW -> "<-" | EOF -> "end of input"
