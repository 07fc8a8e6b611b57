(** Materialization (Section 4, Figure 5): turn symbolic dictionaries into
    a sequence of label-free assignments computing flat datasets — the top
    bag plus one flat dictionary per output level. Dictionaries are emitted
    directly in flat form (label column + item columns); per-label [match]
    loops become label joins and localized aggregation becomes global
    aggregation with the label prepended to the key.

    Domain elimination (Section 4) is applied per symbolic dictionary:
    rule 1 (body dereferences only its own label in an existing dictionary,
    including the sumBy/dedup extensions of Example 6) and rule 2 (the
    label captures scalars used only as equality filters). Output levels
    that alias an input dictionary are recorded in the {!Registry} and cost
    nothing. *)

type config = { domain_elimination : bool }

val default : config

type result = {
  assignments : (string * Nrc.Expr.t) list;  (** in dependency order *)
  top : string;  (** dataset holding the flat top bag *)
  dicts : (string list * string) list;  (** output dict path -> dataset *)
}

val materialize :
  ?config:config ->
  registry:Registry.t ->
  target:string ->
  Nrc.Expr.t * Symbolic.dtree ->
  result
(** Materialize one shredded assignment: the registry names the top bag
    ([Top target]) and each dictionary ([Dict (target, path)]), or records
    the dictionary as an alias. *)
