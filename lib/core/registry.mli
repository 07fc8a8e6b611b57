(** Registry of materialized dictionary names: maps (dataset, attribute
    path) to the concrete dataset holding that dictionary. By default a
    dictionary lives under its canonical name [<dataset>_D_<path>]; the
    materializer records aliases when an output level reuses an input
    dictionary unchanged (Section 4: "The first two output levels are those
    from the shredded input"). *)

type t

val create : unit -> t

val resolve : t -> string -> string list -> string
(** The dataset name holding the dictionary of [dataset] at [path]. *)

val record : t -> string -> string list -> string -> unit
(** Record that the dictionary of [dataset] at [path] lives in the given
    dataset (an alias, or a freshly materialized dictionary). *)
