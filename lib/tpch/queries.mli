(** The TPC-H NRC query benchmark of Section 6: flat-to-nested,
    nested-to-nested, and nested-to-flat families, parameterized by nesting
    level (0-4) and the narrow/wide variant. The nested families read the
    materialized nested input under the dataset name [COP] plus [Part]. *)

val nested_name : string
(** ["COP"]. *)

val nested_input_ty : ?wide:bool -> level:int -> unit -> Nrc.Types.t
(** Type of {!Generator.nested_input}. *)

val flat_to_nested : ?wide:bool -> level:int -> unit -> Nrc.Expr.t
(** Iteratively group the relational inputs up to the given level, keeping
    (pkey, lqty) at the leaf; narrow keeps one attribute per level. *)

type family =
  | Flat_to_nested  (** {!flat_to_nested} *)
  | Nested_to_nested
      (** rebuild the input hierarchy; at the leaf, join Part and
          [sumBy^{qty*price}_{pname}] (Example 1) *)
  | Nested_to_flat
      (** navigate every level; join Part at the leaf and sum qty*price
          at the top, keyed by the top level's attributes *)

val family_name : family -> string

val program : ?wide:bool -> family:family -> level:int -> unit -> Nrc.Program.t
(** The benchmark program of one cell, with its input signature. *)

val input_values :
  ?wide:bool ->
  family:family ->
  level:int ->
  Generator.db ->
  (string * Nrc.Value.t) list
(** Input values for one cell (flat tables, or nested input + Part). *)
