(** A golden table of every compiled artifact: for 86 cases (the 30 TPC-H
    cells, biomed and the [Fixtures.corpus] queries, each with domain
    elimination on and off) the materialized program, every shredded plan,
    the unshred plan and the standard plans, one [Digest] per case.

    A refactor of the compiler must keep every row. The cases compile in a
    fixed order inside this executable alone, so even the [Nrc.Expr.fresh]
    names they print are reproducible. On a mismatch the test prints the
    actual table to paste over [golden]; a mismatch that is not an intended
    change to the compiled output is a regression. *)

module A = Trance.Api

let cases =
  List.concat_map
    (fun family ->
      List.concat_map
        (fun level ->
          List.map
            (fun wide ->
              ( Printf.sprintf "%s-%d%s"
                  (Tpch.Queries.family_name family)
                  level
                  (if wide then "-wide" else ""),
                Tpch.Queries.program ~wide ~family ~level () ))
            [ false; true ])
        [ 0; 1; 2; 3; 4 ])
    Tpch.Queries.[ Flat_to_nested; Nested_to_nested; Nested_to_flat ]
  @ [ ("biomed", Biomed.Pipeline.program) ]
  @ List.map
      (fun (n, q) -> (n, Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty q))
      Fixtures.corpus

(* the text of one case: the same lines whether a route compiles or rejects
   the program *)
let artifacts ~de (name, p) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let config =
    {
      A.default_config with
      materializer = { Trance.Materialize.domain_elimination = de };
    }
  in
  Fmt.pf ppf "=== %s de=%b@." name de;
  (match A.compile_shredded ~config p with
  | c ->
    Fmt.pf ppf "--- mat@.%a@." Nrc.Program.pp c.pipeline.mat;
    List.iter
      (fun (n, op) -> Fmt.pf ppf "--- plan %s@.%a@." n Plan.Op.pp op)
      c.plans;
    Option.iter
      (fun op -> Fmt.pf ppf "--- unshred@.%a@." Plan.Op.pp op)
      c.unshred_plan
  | exception e -> Fmt.pf ppf "--- shredded: %s@." (Printexc.to_string e));
  (match A.compile_standard ~config p with
  | plans ->
    List.iter
      (fun (n, op) -> Fmt.pf ppf "--- standard %s@.%a@." n Plan.Op.pp op)
      plans
  | exception e -> Fmt.pf ppf "--- standard: %s@." (Printexc.to_string e));
  Buffer.contents buf

let golden =
  [
    ("flat-to-nested-0 de=true", "32e7a75812414a73922f777eed2ab175");
    ("flat-to-nested-0-wide de=true", "4776e76e7a7276fe77bbf0ba88ab46aa");
    ("flat-to-nested-1 de=true", "3a744c4d68494d781d1677e5422cb221");
    ("flat-to-nested-1-wide de=true", "346e5ccc7f7b995307d9e6b6adcb3edc");
    ("flat-to-nested-2 de=true", "5c954fadfc3226b50e2604b760649cee");
    ("flat-to-nested-2-wide de=true", "eb99c2164239caa5ee2c0ff34d18da96");
    ("flat-to-nested-3 de=true", "5df45c105adb08d5eb079120aea953c1");
    ("flat-to-nested-3-wide de=true", "d974c7c68432e20401380d6b566f81f7");
    ("flat-to-nested-4 de=true", "713fc892c339b78131e114dfeb383a69");
    ("flat-to-nested-4-wide de=true", "b1200a35b9f86effccceb032215a73fe");
    ("nested-to-nested-0 de=true", "6516fdd9dd5375f05cab35757b39dcfa");
    ("nested-to-nested-0-wide de=true", "74c96c12695947f09eaafb48a25bf575");
    ("nested-to-nested-1 de=true", "2d8d28071ccc2c84ec798892c14f5a56");
    ("nested-to-nested-1-wide de=true", "038a76afc09f8e24e1742fe0439de51a");
    ("nested-to-nested-2 de=true", "b2eeafd968ba6a79660e1ba790089014");
    ("nested-to-nested-2-wide de=true", "e91da16d3412f067b7a71f4d091b3e4e");
    ("nested-to-nested-3 de=true", "252e7816147a8e22ddbfd8e43927e3f9");
    ("nested-to-nested-3-wide de=true", "ff615643713e9f00fc015eb7531bf8cc");
    ("nested-to-nested-4 de=true", "8cb7ff9060ff1b50d1159a019865fcff");
    ("nested-to-nested-4-wide de=true", "adfbc6e8c923872e277dc7a2232412eb");
    ("nested-to-flat-0 de=true", "f0fdf7dda38a560460a334cdd44b6771");
    ("nested-to-flat-0-wide de=true", "f039597a1a97e54da7ecde26ac52c92a");
    ("nested-to-flat-1 de=true", "b3aa7364156db673bcc55562af44beaf");
    ("nested-to-flat-1-wide de=true", "3fd78c385ad171bca901c17180ae03da");
    ("nested-to-flat-2 de=true", "9efc39e9c2074cf90d44c1d8c1a85455");
    ("nested-to-flat-2-wide de=true", "216d27e53d36a9839df1b1cbc86a85d7");
    ("nested-to-flat-3 de=true", "20e8b688b0aed7a3762dcd9398b32689");
    ("nested-to-flat-3-wide de=true", "8d6448cc9781f65682952f716f0df515");
    ("nested-to-flat-4 de=true", "6278cb4012311fc127c9d96f6cedfa95");
    ("nested-to-flat-4-wide de=true", "12c47e4683decbfb0ed55b9493ba97f9");
    ("biomed de=true", "51c8551891273d14d3d14a471fd9b4ec");
    ("example1 de=true", "5f799047db78b9556aa7fc803d5cbdbb");
    ("flatten de=true", "cf78f187957c61b784af0d38d8e8e65c");
    ("nested_to_flat de=true", "e4ffe063583672d9d5fb8c9e6f110a70");
    ("flat_to_nested de=true", "dc0a45471f3a869360d472e3d393b83e");
    ("select_nested de=true", "ccb2127f2076e1ca498d0628edca0ead");
    ("group_query de=true", "3c7f62a254f3d0a487d00fe162bcdbe1");
    ("dedup_query de=true", "22339887a0a9370d303e65f6dced47d4");
    ("deep_nested de=true", "63ca8b4fa8d3b5b52d9a538586ac2ddf");
    ("two_bags de=true", "1862c1e6bccf6e563a5825dfde1d778a");
    ("group_in_nested de=true", "57b3d77cff9c5672bacbdfc71914f217");
    ("union_nested de=true", "ed4edd0b885f7b81b7a0eb09b08050a8");
    ("union_query de=true", "b49d1d948f8d29d8e8b8cea4715c4caa");
    ("flat-to-nested-0 de=false", "7c0e0ce4c652d08094de465407f20369");
    ("flat-to-nested-0-wide de=false", "ef74bf18bfae98eb71b78967b8c1bdb3");
    ("flat-to-nested-1 de=false", "d09c6c7076b72b13b02dde7735e64cc8");
    ("flat-to-nested-1-wide de=false", "d77b0a6466cdb268af19104cf1cece14");
    ("flat-to-nested-2 de=false", "b5bb019d339057936e6968050af62d4b");
    ("flat-to-nested-2-wide de=false", "aa7631882fd0d9e91e900c7d206847b3");
    ("flat-to-nested-3 de=false", "69837226478e76771321cc9498c6001e");
    ("flat-to-nested-3-wide de=false", "35ea6f1f390378ce481ca1e1a9965e35");
    ("flat-to-nested-4 de=false", "4787aa6b2504d3c9348ab3c41669178f");
    ("flat-to-nested-4-wide de=false", "e2d1a76e2008c1007267bb42d74b7ded");
    ("nested-to-nested-0 de=false", "606a0526a0506c7a3986fb16344dfb62");
    ("nested-to-nested-0-wide de=false", "be859b1a412020c081794aff40980449");
    ("nested-to-nested-1 de=false", "1d761ddd3bc9eb634ff1f9a86c0a003f");
    ("nested-to-nested-1-wide de=false", "4daddb7b09a4953d931dfcd12d47eb27");
    ("nested-to-nested-2 de=false", "7ab09afbfa155285f136c79270002e29");
    ("nested-to-nested-2-wide de=false", "ea2966f8635a7a8f093c2823d4a5fc15");
    ("nested-to-nested-3 de=false", "26575852097340a3f9bf6cc1f997a076");
    ("nested-to-nested-3-wide de=false", "d945a89d952e69bb354eb99f5a6719e0");
    ("nested-to-nested-4 de=false", "8b71d70902229f04ed2aaebf4abc5b77");
    ("nested-to-nested-4-wide de=false", "33f751a9d81e78527a909463c8dfdc88");
    ("nested-to-flat-0 de=false", "870a4108365f8b955cecf849ddccbc81");
    ("nested-to-flat-0-wide de=false", "14c51c585228682483f85161eb96485c");
    ("nested-to-flat-1 de=false", "1a60eb6741b3fdff777b9cd93185cc07");
    ("nested-to-flat-1-wide de=false", "10f9deb86f0ad85dc4c8455a71053227");
    ("nested-to-flat-2 de=false", "6d12d38a798a36f7f5f38f740c1ff706");
    ("nested-to-flat-2-wide de=false", "01f364dd3bd74c321a56d9f3075e1f09");
    ("nested-to-flat-3 de=false", "095f850b8395360fa738d56a9226400b");
    ("nested-to-flat-3-wide de=false", "7ed2eb38db200c70464a4ae59bc80716");
    ("nested-to-flat-4 de=false", "c6b5e0e0f041f912a196ae0c9e2b969e");
    ("nested-to-flat-4-wide de=false", "4086dbef354e158ac0bdd0edfb5cdc52");
    ("biomed de=false", "d03a017a4788b085d07ba890b9146350");
    ("example1 de=false", "bbac38dd9f86e9e3b9b6385947cda1e2");
    ("flatten de=false", "3d4f3c890ab53968bb43dc07e75905c4");
    ("nested_to_flat de=false", "a1931dde6ff03d056315550b253ef297");
    ("flat_to_nested de=false", "50053137c3537a08a4b3650b3324c0c0");
    ("select_nested de=false", "7739e0f04f41469721191713769d423b");
    ("group_query de=false", "83145e9a7326df2639034cd5f4e625af");
    ("dedup_query de=false", "f39501475002d14f52b8337273765f4e");
    ("deep_nested de=false", "f7baf05e9c039a78cf058325323c5b06");
    ("two_bags de=false", "549d30a36221bc2e610d66c35d7a8ad6");
    ("group_in_nested de=false", "2dd97fd8e7962e50aeb7f8a8e24fa707");
    ("union_nested de=false", "1525068d832a88b9c63d771555b3c952");
    ("union_query de=false", "370e3612c9783f30ff9f8b7bfdda7dd0");
  ]

let test_golden () =
  let actual =
    List.concat_map
      (fun de ->
        List.map
          (fun ((name, _) as case) ->
            ( Printf.sprintf "%s de=%b" name de,
              Digest.to_hex (Digest.string (artifacts ~de case)) ))
          cases)
      [ true; false ]
  in
  Alcotest.(check int) "86 cases" 86 (List.length actual);
  if actual <> golden then
    Alcotest.failf "%d of %d compiled-artifact digests differ; actual:@.%s"
      (List.length
         (List.filter (fun (k, d) -> List.assoc_opt k golden <> Some d) actual))
      (List.length actual)
      (String.concat "\n"
         (List.map (fun (k, d) -> Printf.sprintf "    (%S, %S);" k d) actual))

let () =
  Alcotest.run "compile_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "compiled artifacts match the recorded digests"
            `Quick test_golden;
        ] );
    ]
