(** Rows flowing through plan operators: the values of a row's columns,
    position by position. Columns typically hold whole generator variables
    (tuples), index columns (ints), or nested bags produced by
    {!Op.NestBag}.

    A row carries no column names. A set of rows — a partition, or all
    partitions of an executor result — shares one [names] array, its
    schema, which the kernel that built the rows returned beside them, so
    a row costs its values array and nothing more. Code that resolves
    columns by name does so once per schema, never per row. A column name
    may repeat (a join of two rows binding the same name); lookups find
    its first slot. *)

type t = Nrc.Value.t array

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

val slot : string array -> string -> int option
(** The first position of a column in a schema. *)

val get : string array -> t -> string -> Nrc.Value.t
(** [get names row col]: the column [col] of [row] over the schema [names].
    @raise Invalid_argument on missing columns. *)

val column_header : int
(** A column's bytes beyond its value's. *)

val column_bytes : Nrc.Value.t -> int
(** One column holding the value: {!column_header} plus its size. *)

val byte_size : t -> int
(** The sum of {!column_bytes} over the columns — additive, so a row
    built by appending columns or joining rows is sized from its parts.
    Used by the executor's shuffle and memory accounting. *)

val bag_column : int -> int
val tuple_of_columns : int -> int
(** [bag_column items] is a column holding a bag whose items' sizes sum
    to [items]; [tuple_of_columns n + byte_size cols] is a column holding
    a tuple of the [n] values [cols], under any field names. *)

val pp : string array -> Format.formatter -> t -> unit
(** [pp names]: a row over the schema [names]. *)
