(** The shredded compilation pipeline (Section 4) for whole programs:
    symbolic shredding, materialization with domain elimination, and
    optional unshredding. The result is an ordinary flat NRC program over
    shredded datasets, ready for the same unnesting / execution stages as
    the standard route. *)

(** What the pipeline made one materialized assignment for. *)
type origin = {
  step : string;  (** the source assignment it was materialized for *)
  dict : bool;  (** a dictionary: label column + item columns *)
}

type t = {
  mat : Nrc.Program.t;
      (** materialized program: inputs are the shredded datasets; one
          assignment per top bag / dictionary / label domain *)
  origins : (string * origin) list;
      (** one per assignment of [mat], in order *)
  top : string;  (** dataset holding the result's top bag *)
  unshred_query : Nrc.Expr.t option;  (** [None] when the output is flat *)
}

val shred_program : ?config:Materialize.config -> Nrc.Program.t -> t

val eval_shredded :
  ?config:Materialize.config ->
  Nrc.Program.t ->
  (string * Nrc.Value.t) list ->
  t * Nrc.Eval.env * Nrc.Value.t
(** Single-node reference evaluation of the shredded route: shred the input
    values, run the materialized program with the NRC interpreter, unshred.
    The oracle for the distributed shredded execution. *)
