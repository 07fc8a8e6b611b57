(** The five-step end-to-end pipeline E2E of Section 6, following the
    driver-gene analysis of [47]:

    - {b Step1} (hybrid scores): navigates the whole of Occurrences, joins
      SOImpact (BF3) at the candidate level and CopyNumber (BF2) at the
      sample level, aggregates per gene and regroups to nested output
      [<sid, genes: Bag<gid, score>>]. This is the paper's most expensive
      flattening step.
    - {b Step2} (network propagation): joins Network (BN1) against the
      first level of Step1's output and aggregates edge-weighted scores per
      neighbour gene — the join whose flattened form explodes (the paper
      measures 16 billion tuples / 2.1 TB shuffled before crashing).
    - {b Step3} (combine): unions the flattened hybrid and connectivity
      scores and sums them per (sample, gene).
    - {b Step4} (cohort aggregation): sums scores per gene across samples.
    - {b Step5} (report): joins gene metadata for the final flat report.

    The final output is flat, so the shredded route needs no unshredding,
    exactly as in the paper. *)

module E = Nrc.Expr
open Nrc.Builder

let step1 =
  for_ "o" (input "Occurrences") (fun o ->
      sng
        (record
           [
             ("sid", o #. "sid");
             ( "genes",
               sum_by ~keys:[ "gid" ] ~values:[ "score" ]
                 (for_ "m" (o #. "mutations") (fun m ->
                      for_ "c" (m #. "candidates") (fun c ->
                          for_ "t" (input "SOImpact") (fun t ->
                              where
                                (c #. "impact" == t #. "impact")
                                (for_ "cn" (input "CopyNumber") (fun cn ->
                                     where
                                       (cn #. "sid" == o #. "sid"
                                       && cn #. "gid" == c #. "gid")
                                       (sng
                                          (record
                                             [
                                               ("gid", c #. "gid");
                                               ( "score",
                                                 c #. "cscore" * t #. "iweight"
                                                 * (cn #. "cnum" + real 0.01) );
                                             ])))))))) );
           ]))

let step2 =
  for_ "s" (input "Step1") (fun s ->
      sng
        (record
           [
             ("sid", s #. "sid");
             ( "connect",
               sum_by ~keys:[ "gid" ] ~values:[ "cscore" ]
                 (for_ "g" (s #. "genes") (fun g ->
                      for_ "n" (input "Network") (fun n ->
                          where
                            (n #. "gid" == g #. "gid")
                            (for_ "e" (n #. "edges") (fun e ->
                                 sng
                                   (record
                                      [
                                        ("gid", e #. "gid2");
                                        ("cscore", g #. "score" * e #. "eweight");
                                      ])))))) );
           ]))

(* flattened union of hybrid and connectivity contributions *)
let step3_union =
  (for_ "s" (input "Step1") (fun s ->
       for_ "g" (s #. "genes") (fun g ->
           sng
             (record
                [
                  ("sid", s #. "sid"); ("gid", g #. "gid");
                  ("total", g #. "score");
                ]))))
  ++ for_ "s" (input "Step2") (fun s ->
         for_ "g" (s #. "connect") (fun g ->
             sng
               (record
                  [
                    ("sid", s #. "sid"); ("gid", g #. "gid");
                    ("total", g #. "cscore" * real 0.5);
                  ])))

let step3 =
  sum_by ~keys:[ "sid"; "gid" ] ~values:[ "total" ]
    (for_ "x" (input "Step3u") (fun x ->
         sng
           (record
              [ ("sid", x #. "sid"); ("gid", x #. "gid"); ("total", x #. "total") ])))

let step4 =
  sum_by ~keys:[ "gid" ] ~values:[ "total" ]
    (for_ "x" (input "Step3") (fun x ->
         sng (record [ ("gid", x #. "gid"); ("total", x #. "total") ])))

let step5 =
  for_ "x" (input "Step4") (fun x ->
      for_ "gm" (input "GeneMeta") (fun gm ->
          where
            (gm #. "gid" == x #. "gid")
            (sng
               (record
                  [
                    ("gname", gm #. "gname");
                    ("chrom", gm #. "chrom");
                    ("driver", x #. "total");
                  ]))))

(** The full E2E program. Step3's union is materialized as its own
    assignment (Step3u) so that the aggregate input is a single dataset. *)
let program : Nrc.Program.t =
  Nrc.Program.make ~inputs:Schema.inputs_ty
    [
      ("Step1", step1);
      ("Step2", step2);
      ("Step3u", step3_union);
      ("Step3", step3);
      ("Step4", step4);
      ("Step5", step5);
    ]

(** Per-step programs for per-step timing (each step's program ends at that
    step; used to attribute runtime per step as in Figure 9). *)
let prefix_programs : (string * Nrc.Program.t) list =
  List.mapi
    (fun i (a : Nrc.Program.assignment) ->
      ( a.target,
        { program with
          assignments = List.filteri (fun j _ -> Stdlib.( <= ) j i) program.assignments } ))
    program.assignments
