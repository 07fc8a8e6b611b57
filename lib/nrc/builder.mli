(** A combinator DSL for constructing NRC programs readably. Open locally —
    [B.(...)] — because it shadows comparison and arithmetic operators:

    {[
      let open Nrc.Builder in
      for_ "cop" (input "COP") (fun cop ->
        sng (record [ ("cname", cop #. "cname") ]))
    ]} *)

val input : string -> Expr.t
(** Reference a named dataset. *)

val v : string -> Expr.t
(** Reference a variable. *)

val ( #. ) : Expr.t -> string -> Expr.t
(** Attribute projection [e.a]; binds tighter than all other operators. *)

(** {2 Literals} *)

val int_ : int -> Expr.t
val real : float -> Expr.t
val str : string -> Expr.t
val bool_ : bool -> Expr.t
val date : int -> Expr.t

(** {2 Collection constructs} *)

val record : (string * Expr.t) list -> Expr.t
val sng : Expr.t -> Expr.t
val empty : Types.t -> Expr.t
val get : Expr.t -> Expr.t

val for_ : string -> Expr.t -> (Expr.t -> Expr.t) -> Expr.t
(** [for_ x src body]: [for x in src union body (Var x)]. *)

val let_ : string -> Expr.t -> (Expr.t -> Expr.t) -> Expr.t

val union : Expr.t -> Expr.t list -> Expr.t
(** Left fold of {!(++)} over a seed. *)

val ( ++ ) : Expr.t -> Expr.t -> Expr.t
(** Bag union. *)

val where : Expr.t -> Expr.t -> Expr.t
(** [where c e]: bag-typed [if c then e]. *)


(** {2 Comparisons and logic (shadow the stdlib!)} *)

val ( == ) : Expr.t -> Expr.t -> Expr.t
val ( <> ) : Expr.t -> Expr.t -> Expr.t
val ( < ) : Expr.t -> Expr.t -> Expr.t
val ( <= ) : Expr.t -> Expr.t -> Expr.t
val ( > ) : Expr.t -> Expr.t -> Expr.t
val ( >= ) : Expr.t -> Expr.t -> Expr.t
val ( && ) : Expr.t -> Expr.t -> Expr.t
val ( || ) : Expr.t -> Expr.t -> Expr.t

(** {2 Arithmetic (shadow the stdlib!)} *)

val ( + ) : Expr.t -> Expr.t -> Expr.t
val ( - ) : Expr.t -> Expr.t -> Expr.t
val ( * ) : Expr.t -> Expr.t -> Expr.t
val ( / ) : Expr.t -> Expr.t -> Expr.t

(** {2 Restructuring operators} *)

val dedup : Expr.t -> Expr.t
val group_by : ?group_attr:string -> string list -> Expr.t -> Expr.t
val sum_by : keys:string list -> values:string list -> Expr.t -> Expr.t

(** {2 Type shorthands} *)

val t_int : Types.t
val t_real : Types.t
val t_str : Types.t
val t_date : Types.t
val t_bag : Types.t -> Types.t
val t_tup : (string * Types.t) list -> Types.t
