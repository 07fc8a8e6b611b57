(** Synthetic generator for the biomedical benchmark, preserving the shape
    of the paper's datasets: Occurrences (BN2) dominates; candidate genes
    follow the impact classes of the tiny ontology table (BF3); the
    network's edge fanout drives the Step 2 join explosion. Deterministic. *)

type scale = {
  samples : int;
  mutations_per_sample : int;
  candidates_per_mutation : int;
  genes : int;
  edges_per_gene : int;
  seed : int;
}

val full_scale : scale
(** The "full dataset" analogue (280 GB BN2 in the paper). *)

val small_scale : scale
(** The paper's reduced dataset (6 GB BN2). *)

type db = {
  scale : scale;
  occurrences : Nrc.Value.t;  (** BN2: two-level nested *)
  network : Nrc.Value.t;  (** BN1: one-level nested *)
  copynumber : Nrc.Value.t;  (** BF2 *)
  genemeta : Nrc.Value.t;  (** BF1 *)
  soimpact : Nrc.Value.t;  (** BF3 *)
}

val generate : scale -> db
val inputs : db -> (string * Nrc.Value.t) list
