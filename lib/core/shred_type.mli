(** Shredded types and dataset identities (Section 4).

    The shredded representation of a nested bag of type [T] is a flat bag
    of type [T^F] — bag-valued attributes replaced by labels — together
    with one flat dictionary dataset per nesting level, stored as
    [<label, f1, ..., fk>] rows. Each shredded dataset is identified by
    what it holds, an {!id}; only {!Registry} turns an id into a dataset
    name, by default its {!render}ing:
    [COP ~~> COP_F, COP_D_corders, COP_D_corders_oparts]. Types outside
    the shredded fragment raise {!Unnest.Unsupported}. *)

(** {2 Dataset identities} *)

(** What a shredded dataset holds. *)
type id =
  | Top of string  (** the flat top bag of a dataset *)
  | Dict of string * string list
      (** the dictionary of a dataset at an attribute path *)
  | Dom of string * string list
      (** the label domain of a dataset's dictionary at a path (general
          materialization, without domain elimination) *)

val render : id -> string
(** The default name: [render (Top "COP") = "COP_F"],
    [render (Dict ("COP", ["corders"; "oparts"])) = "COP_D_corders_oparts"],
    [render (Dom ("Q", ["corders"])) = "Q_Dom_corders"]. *)

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
(** The dataset type of a dictionary whose items have the given (original)
    type: a flat bag of label + flat item fields. *)
