(** Runtime values of the nested data model.

    Bags are lists with explicit duplicates (multiplicity is positional).
    [Null] only ever appears as the product of outer operators in the plan
    language; NRC source programs cannot construct it. Labels are the
    runtime counterpart of the shredding extension: created by a [NewLabel]
    site, capturing a tuple of flat values; two labels are equal iff they
    come from the same site and capture equal values. *)

type t =
  | Null
  | Int of int
  | Real of float
  | Str of string
  | Bool of bool
  | Date of int  (** days since 1970-01-01 *)
  | Label of label
  | Tuple of (string * t) list
  | Bag of t list

and label = { site : int; args : t list; hash : int }
(** A label's [hash] is {!hash} of the label, folded once from [site] and
    [args] by {!label}, which builds every label. A label made any other
    way — a copy [{ l with args }] included — must go back through {!label}
    with its new [args], or it carries a stale hash. *)

val is_null : t -> bool

val of_bool : bool -> t
(** [Bool b], one shared value per truth value: allocates nothing. *)

val label : site:int -> t list -> t
(** The label of [site] capturing [args], its hash folded once: [hash] of
    it reads that field. *)

(** {2 Ordering, equality, hashing} *)

val compare : t -> t -> int
(** Total structural order (used for grouping, dedup, canonicalization). *)

val equal : t -> t -> bool

val hash : t -> int
(** Agrees with {!equal}; a label's is the field its {!label} folded. *)

(** {2 Accessors} *)

val field : t -> string -> t
(** Tuple attribute access; [Null] propagates ([field Null _ = Null]).
    @raise Invalid_argument on other non-tuples or missing attributes. *)

val bag_items : t -> t list
(** Contents of a bag; [Null] counts as the empty bag (outer-operator
    semantics). @raise Invalid_argument on other non-bags. *)

val as_real : t -> float
(** Accepts [Int] too (numeric promotion). *)

val as_bool : t -> bool
val as_string : t -> string

(** {2 Size and defaults} *)

val byte_size : t -> int
(** Rough binary-encoded size: drives the simulator's shuffle accounting
    and worker memory budgets. *)

val tuple_bytes : int -> int
val field_bytes : int -> int
val bag_bytes : int -> int
(** The parts {!byte_size} is built from: a tuple's size from the sum of
    its fields' [field_bytes], a field's from its value's size, a bag's
    from the sum of its items' sizes. *)

val default_of_type : Types.t -> t
(** The default value [get] returns on non-singleton bags (Section 2). *)

val type_of : t -> Types.t
(** Type of a closed value; bag elements assumed homogeneous. *)

(** {2 Bag utilities} *)

val canonicalize : t -> t
(** Recursively sort all bag contents: canonical form for order-insensitive
    comparison. *)

val bag_equal : t -> t -> bool
(** Equality up to element order (bags are unordered). *)

val round_reals : ?digits:int -> t -> t
(** Round every real to [digits] (default 6) decimal places. *)

val approx_bag_equal : t -> t -> bool
(** Bag equality up to element order and floating-point summation noise;
    the comparison used to validate distributed aggregates against the
    reference interpreter. *)

val dedup : t list -> t list
(** Distinct elements, first-occurrence order (multiplicities to one). *)

(** {2 Printing} *)

val real_to_string : float -> string
(** A real as the shortest of 15, 16 or 17 significant digits that reads
    back to it, with [.0] appended when that text has neither a fraction
    nor an exponent, so a real never prints as an integer. {!pp} and
    {!Parser.to_source} print reals with it. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
