(** TPC-H analytics over nested data: builds the benchmark's nested
    customer-orders-parts input at two levels of nesting, then runs the
    nested-to-nested and nested-to-flat queries of Section 6 under every
    strategy, comparing runtimes, shuffle volume, and peak memory.

    This is the scenario of the paper's introduction: a collection program
    conceived against local semantics, executed scalably without manual
    rewriting.

    Run with: [dune exec examples/tpch_analytics.exe] *)

let () =
  let scale =
    { Tpch.Generator.default_scale with customers = 150; parts = 300 }
  in
  let db = Tpch.Generator.generate scale in
  Fmt.pr "Generated TPC-H-like data: %d customers, %d orders, %d lineitems, %d parts@.@."
    scale.Tpch.Generator.customers
    (scale.Tpch.Generator.customers * scale.Tpch.Generator.orders_per_customer)
    (scale.Tpch.Generator.customers * scale.Tpch.Generator.orders_per_customer
   * scale.Tpch.Generator.lineitems_per_order)
    scale.Tpch.Generator.parts;

  let level = 2 in
  List.iter
    (fun family ->
      Fmt.pr "=== %s, %d level(s) of nesting ===@."
        (Tpch.Queries.family_name family)
        level;
      let prog = Tpch.Queries.program ~family ~level () in
      Fmt.pr "query:@.%a@." Nrc.Expr.pp
        (List.hd prog.Nrc.Program.assignments).Nrc.Program.body;
      let inputs = Tpch.Queries.input_values ~family ~level db in
      let reference = Nrc.Program.eval_result prog inputs in
      let config =
        { Trance.Api.default_config with
          optimizer =
            { Plan.Optimize.default with unique_keys = [ ("Part", [ "pkey" ]) ] } }
      in
      List.iter
        (fun strategy ->
          let r = Trance.Api.run ~config ~strategy prog inputs in
          Fmt.pr "  %a@." Trance.Api.pp_run r;
          match r.Trance.Api.value with
          | Some v ->
            if not (Nrc.Value.approx_bag_equal v reference) then
              Fmt.pr "  WARNING: result differs from reference!@."
          | None -> ())
        [
          Trance.Api.Standard;
          Trance.Api.Shredded { unshred = false };
          Trance.Api.Shredded { unshred = true };
          Trance.Api.SparkSQL_proxy;
        ];
      Fmt.pr "@.")
    [ Tpch.Queries.Nested_to_nested; Tpch.Queries.Nested_to_flat ];

  (* peek at the shredded representation of the nested input *)
  let cop = Tpch.Generator.nested_input ~level db in
  let ty = Tpch.Queries.nested_input_ty ~level () in
  Fmt.pr "=== Shredded input ===@.";
  List.iter
    (fun (name, bag) -> Fmt.pr "%s: %d rows@." name (List.length (Nrc.Value.bag_items bag)))
    (Trance.Shred_value.shred_env [ ("COP", ty) ] [ ("COP", cop) ])
