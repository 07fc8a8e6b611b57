(** Rows flowing through plan operators: a schema of column names and the
    values in those columns, position by position. Columns typically hold
    whole generator variables (tuples), index columns (ints), or nested
    bags produced by {!Op.NestBag}.

    Rows share one interned [names] array per schema ({!schema}), so a row
    costs its values array and nothing per column beyond it. Code that resolves
    columns by name does so once per schema, not once per row: see
    {!by_schema}. A column name may repeat (a join of two rows binding the
    same name); lookups find its first slot. *)

type t = private { names : string array; vals : Nrc.Value.t array }

val make : string array -> Nrc.Value.t array -> t
(** The row with these columns; [names] is shared, not copied.
    @raise Invalid_argument when the lengths differ. *)

val empty : t
(** The row with no columns; statically allocated, so it is the filler of
    every row array built with {!array_init} or {!array_of_list}. *)

val array_init : 'a -> int -> (int -> 'a) -> 'a array
(** [array_init filler n f] is [Array.init n f], [f] called in index order,
    on an array first made from [filler]. With a static filler ({!empty}
    for rows, [Nrc.Value.Null] for values) an array longer than 256 words
    never forces the minor collection, with every domain stopped, that
    [Array.make] runs when its initial value is young — which
    [Array.init], [Array.map] and [Array.of_list] pass whenever they
    build from freshly allocated elements. Every row and value array on
    the query path is built with this or {!array_of_list}. *)

val array_of_list : 'a -> 'a list -> 'a array
(** [Array.of_list] on an array first made from [filler], as
    {!array_init}. *)

val get : t -> string -> Nrc.Value.t
(** @raise Invalid_argument on missing columns. *)

val slot : string array -> string -> int option
(** The first position of a column in a schema. *)

val schema : string array -> string array
(** The one shared array holding these names: equal schemas interned
    here are physically equal, across kernel calls, partitions and
    domains. Every names array a kernel builds goes through it once —
    per call, or per schema it derives — never per row; the result must
    never be mutated. Thread-safe (a mutex around a weak set, so a schema
    that no row holds any more is collected). *)

val by_schema : (string array -> 'a) -> t -> 'a
(** [by_schema derive] memoises [derive] on the schema of the rows it is
    applied to: it derives again only when a row's [names] is not
    physically the last one seen. Since kernels intern their schemas
    ({!schema}), rows of one partition that different tasks built share
    one [names] array, so a shuffled partition switches schema no more
    often than its content does. The memo is mutable: create one per
    kernel call and never share it across domains. *)

val column_bytes : Nrc.Value.t -> int
(** One column holding the value: 8 bytes plus {!Nrc.Value.byte_size}. *)

val byte_size : t -> int
(** The sum of {!column_bytes} over the columns — additive, so a row
    built by appending columns or joining rows is sized from its parts.
    Used by the executor's shuffle and memory accounting. *)

val pp : Format.formatter -> t -> unit
