(** Schema of the biomedical benchmark (Section 6), shaped after the ICGC /
    cancer-driver-gene pipeline of [47] that the paper evaluates:

    - [Occurrences] (the paper's BN2, 280 GB): two-level nested — per
      sample, somatic mutations, each with candidate gene consequences from
      a VEP-style annotation;
    - [Network] (BN1, 4 GB): one-level nested — per gene, its
      protein-protein interaction edges (STRING-style);
    - [CopyNumber] (BF2, 34 GB): flat per (sample, gene) copy-number calls;
    - [GeneMeta] (BF1, 23 GB): flat gene metadata;
    - [SOImpact] (BF3, 5 KB): the tiny Sequence-Ontology impact weight
      table. *)

module T = Nrc.Types

let inputs_ty =
  let rel fields = T.bag (T.tuple fields) in
  [
    ( "Occurrences",
      rel
        [
          ("sid", T.int_);
          ( "mutations",
            rel
              [
                ("mid", T.int_);
                ( "candidates",
                  rel [ ("gid", T.int_); ("impact", T.string_); ("cscore", T.real) ] );
              ] );
        ] );
    ("Network", rel [ ("gid", T.int_); ("edges", rel [ ("gid2", T.int_); ("eweight", T.real) ]) ]);
    ("CopyNumber", rel [ ("sid", T.int_); ("gid", T.int_); ("cnum", T.real) ]);
    ("GeneMeta", rel [ ("gid", T.int_); ("gname", T.string_); ("chrom", T.string_) ]);
    ("SOImpact", rel [ ("impact", T.string_); ("iweight", T.real) ]);
  ]
