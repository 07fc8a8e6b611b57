(** The plan language of Section 2: selection, projection, (outer) join,
    (outer) unnest, nest, dedup, union — plus the ID-adding operator implied
    by outer-unnest and the BagToDict cast of the shredded route (Section 4).

    Rows are flat records ({!Row.t}): a values array per row over a schema
    of column names that the rows built by one kernel call share.
    Generator variables of the source NRC program become columns holding
    tuple values, so no renaming operators are needed (cf. Figure 3, "we
    omit renaming operators"). Operators name columns; expressions
    ({!Sexpr}) are compiled per kernel call to read them by slot, so
    column order carries no meaning except where {!columns} fixes it
    (union alignment and result packaging).

    The nest operators refine the paper's Gamma with an explicit split
    between the outer grouping attributes G ([keys]) and the aggregation key
    of the translated sumBy/groupBy ([agg_keys]), plus a [presence]
    predicate. This makes the NULL-casting rule of Section 2 precise: rows
    whose [presence] is false keep their G-group alive (so enclosing levels
    still see the group, with an empty bag or zero sum) without contributing
    items; a G-group with no present rows and non-empty [agg_keys] emits a
    single placeholder row with Null agg keys, which the enclosing nest then
    casts to the empty bag. *)

type join_kind = Inner | LeftOuter

type t =
  | Nil of string list  (** the empty dataset with the given columns *)
  | UnitRow  (** a single empty row; source for constant singletons *)
  | Scan of { input : string; binder : string }
      (** each element of the named dataset becomes a row [(binder, elem)] *)
  | Select of Sexpr.t * t
  | Project of (string * Sexpr.t) list * t
  | Join of {
      left : t;
      right : t;
      lkey : Sexpr.t list;
      rkey : Sexpr.t list;
      kind : join_kind;
    }  (** equi-join; output row is the concatenation of both rows. For
           [LeftOuter], unmatched left rows are padded with Null right
           columns. A row whose key contains Null never matches. *)
  | Product of t * t  (** fallback for generators with no join predicate *)
  | Unnest of {
      input : t;
      path : string list;
      binder : string;
      outer : bool;
      drop : bool;
    }  (** mu / outer-mu: pair each row with each element of the bag at
           [path], bound as column [binder]; when [outer] and the bag is
           empty, emit one row with [binder] = Null. When [drop], the
           consumed bag attribute is projected away from the source column
           (the paper's mu "while projecting away a"); set by the optimizer
           when nothing downstream needs it. *)
  | AddIndex of { input : t; col : string }
      (** extend each row with a unique integer ID (Spark zipWithUniqueId);
          inserted before entering a nesting level (Section 3) *)
  | NestBag of {
      input : t;
      keys : (string * Sexpr.t) list; (* grouping attributes G *)
      agg_keys : (string * Sexpr.t) list; (* groupBy key, [] for plain nesting *)
      item : Sexpr.t; (* the nested element, usually MkTuple *)
      presence : Sexpr.t; (* boolean: row contributes an item *)
      out : string;
    }  (** Gamma-union *)
  | NestSum of {
      input : t;
      keys : (string * Sexpr.t) list;
      agg_keys : (string * Sexpr.t) list; (* sumBy key *)
      aggs : (string * Sexpr.t) list; (* output name -> aggregand *)
      presence : Sexpr.t;
    }  (** Gamma-plus; Null aggregand values count as 0 *)
  | Dedup of t
  | UnionAll of t * t
  | BagToDict of { input : t; label : Sexpr.t }
      (** cast a bag to a dictionary keyed by [label]; logically the identity
          on rows, but fixes the label-based partitioning guarantee during
          distributed execution (Section 4, "Extensions for Shredded
          Compilation") *)
  | Cogroup of {
      left : t;
      right : t;
      lkey : Sexpr.t list;
      rkey : Sexpr.t list;
      kind : join_kind;
      keys : (string * Sexpr.t) list;
      item : Sexpr.t;
      presence : Sexpr.t;
      out : string;
    }
      (** a Gamma-union with no [agg_keys] directly over a join, fused so
          the nested object is built without the flattened intermediate
          (Section 3, Optimization); introduced by {!Optimize.cogroup} only
          where each group is exactly one left row *)

(* ------------------------------------------------------------------ *)
(* Schema: output column names, in order. *)

let rec columns = function
  | Nil cols -> cols
  | UnitRow -> []
  | Scan { binder; _ } -> [ binder ]
  | Select (_, p) -> columns p
  | Project (fields, _) -> List.map fst fields
  | Join { left; right; _ } | Product (left, right) ->
    columns left @ columns right
  | Unnest { input; binder; _ } -> columns input @ [ binder ]
  | AddIndex { input; col } -> columns input @ [ col ]
  | NestBag { keys; agg_keys; out; _ } ->
    List.map fst keys @ List.map fst agg_keys @ [ out ]
  | NestSum { keys; agg_keys; aggs; _ } ->
    List.map fst keys @ List.map fst agg_keys @ List.map fst aggs
  | Dedup p -> columns p
  | UnionAll (p, _) -> columns p
  | BagToDict { input; _ } -> columns input
  | Cogroup { keys; out; _ } -> List.map fst keys @ [ out ]

(* ------------------------------------------------------------------ *)
(* Datasets scanned by the plan *)

let name = function
  | Nil _ -> "Nil"
  | UnitRow -> "UnitRow"
  | Scan _ -> "Scan"
  | Select _ -> "Select"
  | Project _ -> "Project"
  | Join _ -> "Join"
  | Product _ -> "Product"
  | Unnest _ -> "Unnest"
  | AddIndex _ -> "AddIndex"
  | NestBag _ -> "NestBag"
  | NestSum _ -> "NestSum"
  | Dedup _ -> "Dedup"
  | UnionAll _ -> "UnionAll"
  | BagToDict _ -> "BagToDict"
  | Cogroup _ -> "Cogroup"

let children = function
  | Nil _ | UnitRow | Scan _ -> []
  | Select (_, c) | Project (_, c) | Dedup c -> [ c ]
  | Join { left; right; _ }
  | Cogroup { left; right; _ }
  | Product (left, right)
  | UnionAll (left, right) ->
    [ left; right ]
  | Unnest { input; _ }
  | AddIndex { input; _ }
  | NestBag { input; _ }
  | NestSum { input; _ }
  | BagToDict { input; _ } ->
    [ input ]

let map_children f = function
  | (Nil _ | UnitRow | Scan _) as op -> op
  | Select (p, c) -> Select (p, f c)
  | Project (fields, c) -> Project (fields, f c)
  | Dedup c -> Dedup (f c)
  | Join j -> Join { j with left = f j.left; right = f j.right }
  | Product (l, r) -> Product (f l, f r)
  | UnionAll (l, r) -> UnionAll (f l, f r)
  | Unnest u -> Unnest { u with input = f u.input }
  | AddIndex a -> AddIndex { a with input = f a.input }
  | NestBag n -> NestBag { n with input = f n.input }
  | NestSum n -> NestSum { n with input = f n.input }
  | BagToDict b -> BagToDict { b with input = f b.input }
  | Cogroup c -> Cogroup { c with left = f c.left; right = f c.right }

let rec inputs = function
  | Scan { input; _ } -> [ input ]
  | op -> List.concat_map inputs (children op)

(* ------------------------------------------------------------------ *)
(* Pretty printing: indented operator tree *)

let pp_named ppf (n, e) = Fmt.pf ppf "%s:=%a" n Sexpr.pp e

let pp_kind ppf = function
  | Inner -> Fmt.string ppf "\u{22C8}"
  | LeftOuter -> Fmt.string ppf "\u{27D5}"

let rec pp ppf op =
  match op with
  | Nil cols -> Fmt.pf ppf "Nil(%s)" (String.concat "," cols)
  | UnitRow -> Fmt.string ppf "UnitRow" 
  | Scan { input; binder } -> Fmt.pf ppf "Scan %s as %s" input binder
  | Select (p, c) -> Fmt.pf ppf "@[<v 2>\u{03C3}[%a]@,%a@]" Sexpr.pp p pp c
  | Project (fields, c) ->
    Fmt.pf ppf "@[<v 2>\u{03C0}[%a]@,%a@]"
      (Fmt.list ~sep:Fmt.comma pp_named)
      fields pp c
  | Join { left; right; lkey; rkey; kind } ->
    Fmt.pf ppf "@[<v 2>%a[%a = %a]@,%a@,%a@]" pp_kind kind
      (Fmt.list ~sep:Fmt.comma Sexpr.pp)
      lkey
      (Fmt.list ~sep:Fmt.comma Sexpr.pp)
      rkey pp left pp right
  | Product (l, r) -> Fmt.pf ppf "@[<v 2>\u{00D7}@,%a@,%a@]" pp l pp r
  | Unnest { input; path; binder; outer; drop } ->
    Fmt.pf ppf "@[<v 2>%s\u{03BC}%s[%s as %s]@,%a@]"
      (if outer then "outer-" else "")
      (if drop then "!" else "")
      (String.concat "." path) binder pp input
  | AddIndex { input; col } -> Fmt.pf ppf "@[<v 2>AddIndex[%s]@,%a@]" col pp input
  | NestBag { input; keys; agg_keys; item; presence; out } ->
    Fmt.pf ppf
      "@[<v 2>\u{0393}\u{228E}[%s := %a by G=(%a) key=(%a) when %a]@,%a@]" out
      Sexpr.pp item
      (Fmt.list ~sep:Fmt.comma pp_named)
      keys
      (Fmt.list ~sep:Fmt.comma pp_named)
      agg_keys Sexpr.pp presence pp input
  | NestSum { input; keys; agg_keys; aggs; presence } ->
    Fmt.pf ppf "@[<v 2>\u{0393}+[%a by G=(%a) key=(%a) when %a]@,%a@]"
      (Fmt.list ~sep:Fmt.comma pp_named)
      aggs
      (Fmt.list ~sep:Fmt.comma pp_named)
      keys
      (Fmt.list ~sep:Fmt.comma pp_named)
      agg_keys Sexpr.pp presence pp input
  | Dedup c -> Fmt.pf ppf "@[<v 2>dedup@,%a@]" pp c
  | UnionAll (l, r) -> Fmt.pf ppf "@[<v 2>\u{228E}@,%a@,%a@]" pp l pp r
  | BagToDict { input; label } ->
    Fmt.pf ppf "@[<v 2>BagToDict[%a]@,%a@]" Sexpr.pp label pp input
  | Cogroup { left; right; lkey; rkey; kind; keys; item; presence; out } ->
    Fmt.pf ppf
      "@[<v 2>cogroup[%s := %a by G=(%a) when %a over %a[%a = %a]]@,%a@,%a@]"
      out Sexpr.pp item
      (Fmt.list ~sep:Fmt.comma pp_named)
      keys Sexpr.pp presence pp_kind kind
      (Fmt.list ~sep:Fmt.comma Sexpr.pp)
      lkey
      (Fmt.list ~sep:Fmt.comma Sexpr.pp)
      rkey pp left pp right

let to_string op = Fmt.str "%a" pp op

(* ------------------------------------------------------------------ *)
(* Operator counters (used in tests and plan diagnostics) *)

let rec count pred op =
  let self = if pred op then 1 else 0 in
  List.fold_left (fun acc c -> acc + count pred c) self (children op)
