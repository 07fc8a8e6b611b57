(** The unnesting stage (Section 3): translates NRC expressions into query
    plans, following the variant of Fegaras and Maier's algorithm described
    in the paper — comprehension normal form, join detection from equality
    predicates, outer joins/unnests with unique-ID insertion at each
    nesting level, and closing Gamma operators keyed by the
    grouping-attribute set G.

    At non-root levels, residual predicates fold into the closing nest's
    presence predicate rather than becoming selections: a filtered-out row
    must keep its group alive with an empty bag / zero sum (the
    NULL-casting behaviour of Section 2). *)

exception Unsupported of string
(** The compilers' one refusal of a program outside the supported
    fragment, with a descriptive message. Unnesting raises it on multiple
    bag-valued attributes per level, unions inside nested attributes,
    correlated subquery generators and [get] at bag positions; shredding,
    materialization and unshredding on what they cannot shred; the
    shredded loader on a value that does not match its input's type. *)

val unsupported : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Unsupported} with a formatted message. *)

val translate : tenv:(string * Nrc.Types.t) list -> Nrc.Expr.t -> Plan.Op.t
(** Translate a bag-typed expression; [tenv] types the named datasets
    (program inputs and previously assigned variables). *)

val translate_program : Nrc.Program.t -> (string * Plan.Op.t) list
(** One plan per assignment; the type environment grows along the way. *)
