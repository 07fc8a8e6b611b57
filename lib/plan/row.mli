(** Rows flowing through plan operators: a schema of column names and the
    values in those columns, position by position. Columns typically hold
    whole generator variables (tuples), index columns (ints), or nested
    bags produced by {!Op.NestBag}.

    Rows built by one kernel call share one [names] array, so a row costs
    its values array and nothing per column beyond it. Code that resolves
    columns by name does so once per schema, not once per row: see
    {!by_schema}. A column name may repeat (a join of two rows binding the
    same name); lookups find its first slot. *)

type t = private { names : string array; vals : Nrc.Value.t array }

val make : string array -> Nrc.Value.t array -> t
(** The row with these columns; [names] is shared, not copied.
    @raise Invalid_argument when the lengths differ. *)

val empty : t

val get : t -> string -> Nrc.Value.t
(** @raise Invalid_argument on missing columns. *)

val slot : string array -> string -> int option
(** The first position of a column in a schema. *)

val same_schema : string array -> string array -> bool
(** Physically the same array, or the same names in the same order. *)

val by_schema : (string array -> 'a) -> t -> 'a
(** [by_schema derive] memoises [derive] on the schema of the rows it is
    applied to: it derives again only when a row's [names] is neither
    physically nor by {!same_schema} the last one seen, and keeps one
    derived value across schemas that are equal but not shared (rows of
    one partition that different tasks built). The memo is mutable:
    create one per kernel call and never share it across domains. *)

val column_bytes : Nrc.Value.t -> int
(** One column holding the value: 8 bytes plus {!Nrc.Value.byte_size}. *)

val byte_size : t -> int
(** The sum of {!column_bytes} over the columns — additive, so a row
    built by appending columns or joining rows is sized from its parts.
    Used by the executor's shuffle and memory accounting. *)

val pp : Format.formatter -> t -> unit
