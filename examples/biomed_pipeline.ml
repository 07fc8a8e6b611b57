(** The biomedical end-to-end pipeline (Section 6 / Figure 9): a five-step
    cancer driver-gene analysis over two-level nested mutation occurrences,
    a one-level nested protein interaction network, and flat clinical
    tables. The intermediate results are nested, the final report is flat —
    the shredded route runs the whole pipeline without ever rebuilding a
    nested value.

    Run with: [dune exec examples/biomed_pipeline.exe] *)

let () =
  let db = Biomed.Generator.generate Biomed.Generator.small_scale in
  let inputs = Biomed.Generator.inputs db in
  Fmt.pr "Pipeline (%d assignments):@.%a@."
    (List.length Biomed.Pipeline.program.Nrc.Program.assignments)
    Nrc.Program.pp Biomed.Pipeline.program;

  let config = { Trance.Api.default_config with collect = true } in
  let reference = Nrc.Program.eval_result Biomed.Pipeline.program inputs in

  List.iter
    (fun strategy ->
      let r = Trance.Api.run ~config ~strategy Biomed.Pipeline.program inputs in
      Fmt.pr "=== %s ===@.%a@." r.Trance.Api.strategy Trance.Api.pp_run r;
      List.iter
        (fun (s : Trance.Api.step_report) ->
          Fmt.pr "  %-8s %.4f sim s@." s.step s.stats.Exec.Stats.sim_seconds)
        r.Trance.Api.steps;
      (match r.Trance.Api.value with
      | Some v when Nrc.Value.approx_bag_equal v reference ->
        Fmt.pr "  final report matches the reference (%d genes)@.@."
          (List.length (Nrc.Value.bag_items v))
      | Some _ -> Fmt.pr "  WARNING: result differs!@.@."
      | None -> Fmt.pr "@."))
    [ Trance.Api.Standard; Trance.Api.Shredded { unshred = false } ];

  (* top driver genes from the reference result *)
  let top =
    Nrc.Value.bag_items reference
    |> List.sort (fun a b ->
           Nrc.Value.compare (Nrc.Value.field b "driver") (Nrc.Value.field a "driver"))
    |> List.filteri (fun i _ -> i < 5)
  in
  Fmt.pr "Top driver genes:@.";
  List.iter
    (fun g ->
      Fmt.pr "  %-10s %-6s %a@."
        (Nrc.Value.as_string (Nrc.Value.field g "gname"))
        (Nrc.Value.as_string (Nrc.Value.field g "chrom"))
        Nrc.Value.pp (Nrc.Value.field g "driver"))
    top
