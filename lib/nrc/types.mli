(** Types of the nested relational calculus (Figure 1 of the paper) plus the
    label and dictionary types of the shredding extension NRC^{Lbl+lambda}
    (Section 4).

    The grammar restricts bags to contain flat scalars or tuples (whose
    attributes may themselves be bags — but never bags of bags):
    {v
      T ::= S | C        C ::= Bag(F)
      F ::= <a1:T,...,an:T> | S    S ::= int | real | string | bool | date
    v} *)

type scalar = TInt | TReal | TString | TBool | TDate

type t =
  | TScalar of scalar
  | TTuple of (string * t) list
  | TBag of t
  | TLabel  (** atomic label type; runtime labels carry their own payload *)
  | TDict of t  (** [Label -> Bag t], used only during symbolic shredding *)

(** {2 Constructors} *)

val int_ : t
val real : t
val string_ : t
val bool_ : t
val date : t
val tuple : (string * t) list -> t
val bag : t -> t
val label : t
val dict : t -> t

(** {2 Predicates and accessors} *)

val equal : t -> t -> bool

val is_flat : t -> bool
(** A type is flat when it contains no bag (labels and scalars are flat). *)

val is_flat_bag : t -> bool
(** A bag of scalars or of tuples with flat attributes — the only legal
    input to [dedup] (Section 2). *)

val is_bag : t -> bool

val tuple_fields : t -> (string * t) list
(** @raise Invalid_argument on non-tuple types. *)

val field : t -> string -> t
(** The type of one tuple attribute.
    @raise Invalid_argument if missing or not a tuple. *)

val element : t -> t
(** The element type of a bag. @raise Invalid_argument on non-bags. *)

val depth : t -> int
(** Maximum bag-nesting depth: scalars 0, flat bags 1, COP 3. *)

(** {2 Printing} *)

val scalar_to_string : scalar -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
