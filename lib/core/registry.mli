(** The one owner of shredded dataset names. Every shredded dataset — a top
    bag, a dictionary or a label domain — is keyed by what it holds, a
    {!Shred_type.id}, and named here once. A name is the id's
    {!Shred_type.render}ing when that is free, else the rendering plus the
    least free [_k] suffix ([T_D_F_1]), so a user name that looks like a
    generated one never makes two datasets share a name. *)

type t

val of_inputs : (string * Nrc.Types.t) list -> t
(** A registry over a program's inputs: it first reserves the non-bag
    inputs' own names, then names each bag input's top bag and
    dictionaries, in input order and pre-order. The loader and the
    compiler both start from it, so they agree on every input dataset. *)

val name : t -> Shred_type.id -> string
(** The dataset holding [id], named on first request. *)

val fresh : t -> Shred_type.id -> string
(** Name [id] anew, whatever held it before: the materializer names each
    assignment's datasets so, so a target assigned twice, or named like an
    input, never writes over a dataset a later step still reads. *)

val alias : t -> Shred_type.id -> string -> unit
(** Record that [id] is held by an existing dataset: an output level that
    reuses an input dictionary unchanged (Section 4). *)

val datasets : t -> string -> Nrc.Types.t -> (string * Nrc.Types.t) list
(** [datasets t base ty]: the datasets holding [base] of type [ty], with
    their types — a bag's top bag, then its dictionaries in pre-order
    (named on first request); anything else is [base] itself. *)
