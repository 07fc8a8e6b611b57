(** Schema of the biomedical benchmark (Section 6), shaped after the
    ICGC / driver-gene pipeline of [47]: two-level nested Occurrences
    (BN2), one-level nested Network (BN1), flat CopyNumber (BF2), GeneMeta
    (BF1) and the tiny SOImpact ontology table (BF3). *)

val inputs_ty : (string * Nrc.Types.t) list
(** All five inputs in pipeline order. *)
