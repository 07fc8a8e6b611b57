(** Hand-written lexer for the NRC surface syntax (see {!Parser}). *)

type token =
  | IDENT of string
  | INT of int
  | REAL of float
  | STRING of string
  | DATE of int  (** [@123] *)
  | FOR | IN | UNION | IF | THEN | ELSE | LET | TRUE | FALSE
  | SNG | GET | DEDUP | SUMBY | GROUPBY | EMPTY | AND_KW | OR_KW | NOT_KW
  | TBAG | TTUPLE | TINT | TREAL | TSTRING | TBOOL | TDATE
  | LPAREN | RPAREN | LBRACE | RBRACE
  | COMMA | SEMI | DOT | COLON | ASSIGN
  | EQ | NE | LT | LE | GT | GE
  | PLUS | MINUS | STAR | SLASH | PLUSPLUS
  | AMPAMP | BARBAR
  | LARROW  (** [<-] in program assignments *)
  | EOF

exception Lex_error of { pos : int; message : string }

val tokenize : string -> (token * int) list
(** Tokens with their byte offsets; comments run from [--] to end of line.
    A number is [d[.d][(e|E)[+|-]d]]: a [REAL] when it has a fraction or an
    exponent, else an [INT]. The digits of [-min_int], one past [max_int],
    read as [INT min_int], which only a unary minus makes a literal (see
    {!Parser}).
    @raise Lex_error on unterminated strings, stray characters, and
    integer, date or real literals out of range. *)

val token_to_string : token -> string
