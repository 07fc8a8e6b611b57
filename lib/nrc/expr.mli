(** Abstract syntax of NRC (Figure 1) and of the label constructs that
    shredded programs add (Section 4): [NewLabel], [MatchLabel] and
    [MatLookup] on a materialized flat dictionary. The paper's symbolic
    NRC^{Lbl+lambda} constructs (lambda-dictionaries, symbolic lookups,
    dictionary-tree unions) are not in this AST: symbolic shredding keeps
    dictionaries as an OCaml value ([Symbolic.dtree] in the core library).
    Source programs are checked label-free by {!Typecheck.check_source}. *)

type var = string
type prim = Add | Sub | Mul | Div
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type logic = And | Or

type const =
  | CInt of int
  | CReal of float
  | CString of string
  | CBool of bool
  | CDate of int

type t =
  | Const of const
  | Var of var
  | Proj of t * string  (** [e.a] *)
  | Record of (string * t) list  (** tuple constructor *)
  | Empty of Types.t  (** empty bag with the given {e element} type *)
  | Singleton of t  (** [{e}] *)
  | Get of t  (** [get(e)]: the element of a singleton, else a default *)
  | ForUnion of var * t * t  (** [for x in e1 union e2] *)
  | Union of t * t  (** bag union (additive on multiplicities) *)
  | Let of var * t * t
  | Prim of prim * t * t
  | Cmp of cmp * t * t
  | Logic of logic * t * t
  | Not of t
  | If of t * t * t option  (** [If (c, e, None)] is bag-typed [if c then e] *)
  | Dedup of t  (** multiplicities to one; input must be a flat bag *)
  | GroupBy of { input : t; keys : string list; group_attr : string }
      (** per distinct key, nest the remaining attributes under [group_attr] *)
  | SumBy of { input : t; keys : string list; values : string list }
      (** per distinct key, sum the [values] attributes *)
  | NewLabel of { site : int; args : t list }
      (** create a label capturing flat values (shredding extension) *)
  | MatchLabel of {
      label : t;
      site : int;
      params : (var * Types.t) list;
      body : t;
    }
      (** [match l = NewLabel(params) then body]: binds the captured values
          positionally when [label] was created by [site], else the empty
          bag *)
  | MatLookup of t * t
      (** lookup in a materialized flat dictionary [<label, f1...fk>]:
          yields the rows of one label, label column stripped *)

(** {2 Smart constructors} *)

val int_ : int -> t
val real : float -> t
val str : string -> t
val bool_ : bool -> t
val date : int -> t
val var : var -> t
val proj : t -> string -> t
val path : var -> string list -> t
(** [path x [a; b]] is [x.a.b]. *)

val rooted_path : t -> (var * string list) option
(** The inverse of {!path}: [Some (x, [a; b])] when the argument is [x.a.b]. *)

val record : (string * t) list -> t
val sng : t -> t
val eq : t -> t -> t

val conj : t list -> t
(** [conj [a; b; c]] is [(a && b) && c]; [conj []] is [true]. *)

val conjuncts : t -> t list
(** The inverse of {!conj}: the operands of nested [&&], left to right. *)

val const_value : const -> Value.t
val const_type : const -> Types.t

(** {2 Traversal, variables, substitution} *)

val map_children : (t -> t) -> t -> t
(** Map over immediate subexpressions (not binder-aware on its own). *)

module VSet : Set.S with type elt = string

val free_vars : t -> VSet.t
val is_free : var -> t -> bool

val fresh : ?hint:string -> unit -> var
(** Globally fresh variable names (contain ['%'], which user programs
    should avoid). *)

val subst : var -> t -> t -> t
(** [subst x e' e]: capture-avoiding substitution of [e'] for [x] in [e]. *)

val equal : t -> t -> bool

(** {2 Printing} *)

val prim_to_string : prim -> string
val cmp_to_string : cmp -> string
val logic_to_string : logic -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
