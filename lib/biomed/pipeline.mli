(** The five-step end-to-end pipeline E2E of Section 6 (Figure 9),
    following the driver-gene analysis of [47]: hybrid scoring over the
    whole of Occurrences (Step 1, nested output), network propagation
    against the first level of Step 1's output (Step 2, the explosive
    join), combination, cohort aggregation, and the flat final report. *)

val program : Nrc.Program.t
(** The full E2E program (Step3's union materialized as [Step3u]). *)

val prefix_programs : (string * Nrc.Program.t) list
(** One program per prefix of the pipeline, for per-step attribution. *)
