(** Value shredding and unshredding (Section 4): convert nested values to
    their shredded representation — flat top bag plus flat dictionaries —
    and back. Used to prepare inputs for the shredded pipeline and as the
    semantic reference for query-shredding tests. *)

type shredded = {
  top : Nrc.Value.t;  (** flat bag with labels in bag positions *)
  dicts : (string list * Nrc.Value.t) list;
      (** path -> flat dictionary bag (label + item fields) *)
}

val shred_bag : string -> Nrc.Types.t -> Nrc.Value.t -> shredded
(** [shred_bag base elem_ty v]: shred one nested bag, drawing label sites
    from {!Shred_type.input_site}[ base]. *)

type env = {
  datasets : (string * Nrc.Value.t) list;
      (** named datasets ([COP_F], [COP_D_corders], ...), in input order *)
  dicts : string list;  (** the names of the dictionaries among [datasets] *)
}

val shred_env :
  (string * Nrc.Types.t) list -> (string * Nrc.Value.t) list -> env
(** Shred every nested input of an environment; flat bags pass through
    under their [_F] name; non-bag inputs unchanged. *)

val unshred_bag :
  Nrc.Types.t ->
  Nrc.Value.t ->
  (string list * Nrc.Value.t) list ->
  Nrc.Value.t
(** Rebuild the nested bag; inverse of {!shred_bag} up to label identity. *)
