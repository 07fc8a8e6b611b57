(** Rows flowing through plan operators: flat records mapping column names
    to values. Columns typically hold whole generator variables (tuples),
    index columns (ints), or nested bags produced by {!Op.NestBag}. *)

type t = (string * Nrc.Value.t) list

val empty : t

val get : t -> string -> Nrc.Value.t
(** @raise Invalid_argument on missing columns. *)

val add : string -> Nrc.Value.t -> t -> t
val columns : t -> string list

val column_bytes : Nrc.Value.t -> int
(** One column holding the value: 8 bytes plus {!Nrc.Value.byte_size}. *)

val byte_size : t -> int
(** The sum of {!column_bytes} over the columns — additive, so a row
    built by appending columns or joining rows is sized from its parts.
    Used by the executor's shuffle and memory accounting. *)

val restrict : string list -> t -> t
(** Project to the given columns in order; missing ones become [Null]
    (aligns union branches and pads outer-join sides). *)

val nulls : string list -> t
val pp : Format.formatter -> t -> unit
