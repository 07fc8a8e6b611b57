(** Shredded types and naming conventions (Section 4).

    The shredded representation of a nested bag of type [T] is a flat bag
    of type [T^F] — bag-valued attributes replaced by labels — together
    with one flat dictionary dataset per nesting level, stored as
    [<label, f1, ..., fk>] rows and named by attribute path:
    [COP ~~> COP_F, COP_D_corders, COP_D_corders_oparts]. *)

exception Shred_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Shred_error} with a formatted message. *)

(** {2 Naming} *)

val top_name : string -> string
(** [top_name "COP" = "COP_F"]. *)

val dict_name : string -> string list -> string
(** [dict_name "COP" ["corders"; "oparts"] = "COP_D_corders_oparts"]. *)

val is_dict_name : string -> bool
(** Does the name carry the dictionary marker ["_D_"] that {!dict_name}
    puts after the base name? Top bags ({!top_name}) never do. *)

val domain_name : string -> string list -> string
(** Name of a label-domain assignment (general materialization path). *)

(** {2 Label sites} *)

val fresh_site : unit -> int
(** A new label-creation site. *)

val input_site : string -> string list -> int
(** The memoized site used when value-shredding input [base] at [path]. *)

val reset_sites : unit -> unit
(** Reset the site namespace (and the input-site memo). Label identities
    feed hash partitioning, so {!Trance.Api.run} resets before each run to
    keep repeated runs in one process bit-identical. *)

(** {2 Type transformations} *)

val flat_of : Nrc.Types.t -> Nrc.Types.t
(** [T^F]: bag-valued tuple attributes become labels, recursively. *)

val elem_at : Nrc.Types.t -> string list -> Nrc.Types.t
(** Element type at a path of bag-valued attributes. *)

val bag_attrs : Nrc.Types.t -> (string * Nrc.Types.t) list
(** Bag-valued attributes of a tuple element type (name, element type). *)

val dict_paths : Nrc.Types.t -> string list list
(** All dictionary paths of a nested element type, pre-order:
    [[["corders"]; ["corders"; "oparts"]]] for COP. *)

val dict_dataset_ty : Nrc.Types.t -> Nrc.Types.t
(** Dataset type of a materialized dictionary with the given original item
    type: a flat bag of label + flat item fields.
    @raise Shred_error for non-tuple items. *)

val shredded_inputs : string -> Nrc.Types.t -> (string * Nrc.Types.t) list
(** Names and types of a dataset's shredded form: top bag + dictionaries. *)
