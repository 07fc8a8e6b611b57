(** Recursive-descent parser for an ASCII surface syntax of NRC:

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

    Records are written [(a := e, ...)], singletons [sng(e)] (fused as
    [sng(a := e, ...)]), bag union [e ++ e], aggregation
    [sumBy(keys; values)(e)] and [groupBy(keys[; attr])(e)], empty bags
    [empty(type)] with [type] one of the scalars, [bag(t)], or
    [tuple(a: t, ...)]. Programs are assignment sequences [x <- e ;].
    Literals are integers, reals [d[.d][(e|E)[+|-]d]], strings, dates
    [@d] and booleans; a minus right before a number makes it negative.
    An integer or date out of range, or a real beyond the largest float,
    is a {!Lexer.Lex_error} at its offset. *)

exception Parse_error of { pos : int; message : string }

val expr_of_string : string -> Expr.t
(** @raise Parse_error / {!Lexer.Lex_error} with a byte offset. *)

val program_of_string :
  inputs:(string * Types.t) list -> string -> Program.t

val type_to_source : Types.t -> string

val to_source : Expr.t -> string
(** Render a label-free expression as parseable source text;
    [expr_of_string (to_source e)] is semantically equal to [e] (roundtrip
    property in the test suite). Every integer constant, [min_int]
    included, reads back as itself, and every finite real too: it prints
    with the fewest of 15, 16 or 17 significant digits that read back to
    the same float. @raise Invalid_argument on shredding constructs. *)

val program_to_source : Program.t -> string
