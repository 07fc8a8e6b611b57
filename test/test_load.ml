(** A golden table of every loaded shredded dataset. For the inputs of the
    30 TPC-H cells and of biomed, {!Trance.Shred_value.place} shreds each nested input into its top bag and dictionaries and places
    them on the cluster's partitions: top rows round-robin, dictionary rows
    by the hash of their label. One [Digest] per case covers every
    dataset's name, values, labels, partition by partition in order, and
    key guarantee.

    Labels and partitions are part of the simulated model, so the table
    must hold at every pool size: the load shreds contiguous chunks of the
    top bag in parallel, each starting its label counter where the chunks
    before it end. On a mismatch the test prints the actual table. A
    QCheck property checks the same on random nested values and partition
    counts: the load on several lanes equals the load on one. Both check
    that every loaded row carries its {!Plan.Row.byte_size}. Label sites
    follow the order a depth-first walk first meets each path, also when
    a path is first met in a later chunk. *)

module V = Nrc.Value
module Q = Tpch.Queries

let cases =
  let db =
    Tpch.Generator.generate
      { Tpch.Generator.default_scale with customers = 30; parts = 40 }
  in
  List.concat_map
    (fun family ->
      List.concat_map
        (fun level ->
          List.map
            (fun wide ->
              ( Printf.sprintf "%s-%d%s" (Q.family_name family) level
                  (if wide then "-wide" else ""),
                (Q.program ~wide ~family ~level ()).Nrc.Program.inputs,
                Q.input_values ~wide ~family ~level db ))
            [ false; true ])
        [ 0; 1; 2; 3; 4 ])
    [ Q.Flat_to_nested; Q.Nested_to_nested; Q.Nested_to_flat ]
  @
  let db =
    Biomed.Generator.generate
      { Biomed.Generator.small_scale with
        samples = 6; mutations_per_sample = 5; candidates_per_mutation = 3; genes = 20;
        edges_per_gene = 3 }
  in
  [ ("biomed", Biomed.Pipeline.program.Nrc.Program.inputs, Biomed.Generator.inputs db) ]

(* [Value.t] without a label's hash, which is a function of its site and
   arguments: the same constructors in the same order, so it marshals as
   a value whose labels hold only those two *)
type value =
  | Null
  | Int of int
  | Real of float
  | Str of string
  | Bool of bool
  | Date of int
  | Label of label
  | Tuple of (string * value) list
  | Bag of value list

and label = { site : int; args : value list }

let rec value : V.t -> value = function
  | V.Null -> Null
  | V.Int i -> Int i
  | V.Real r -> Real r
  | V.Str s -> Str s
  | V.Bool b -> Bool b
  | V.Date d -> Date d
  | V.Label { site; args; _ } -> Label { site; args = List.map value args }
  | V.Tuple fs -> Tuple (List.map (fun (n, v) -> (n, value v)) fs)
  | V.Bag items -> Bag (List.map value items)

(* the name of the first dataset holding a row whose carried size is not
   its {!Plan.Row.byte_size}, if any: the loader sizes each element as it
   builds it *)
let missized datasets =
  List.find_map
    (fun (name, (d : Exec.Dataset.t)) ->
      let wrong rows sizes = Array.exists2 (fun r s -> Plan.Row.byte_size r <> s) rows sizes in
      if Array.exists2 wrong d.parts d.sizes then Some name else None)
    datasets

(* the stored datasets of one load on [domains] lanes, with fresh label
   sites *)
let load ~domains ~partitions types values =
  Trance.Shred_type.reset_sites ();
  Exec.Pool.with_pool ~domains (fun pool -> Trance.Shred_value.place pool ~partitions types values)

(* every dataset of one load, in name order: its key, then each partition's
   values; marshalled without sharing, so only structure counts *)
let digest ~domains ~partitions (_, types, values) =
  let loaded = load ~domains ~partitions types values in
  Option.iter (Alcotest.failf "%s: a row's carried size is not its byte_size") (missized loaded);
  let datasets =
    List.sort compare
      (List.map
         (fun (name, (d : Exec.Dataset.t)) ->
           let path = function Plan.Sexpr.Col (_ :: path) -> path | _ -> [] in
           (name, Option.map (List.map path) d.key, Array.map (Array.map value) (Fixtures.elements d)))
         loaded)
  in
  Digest.to_hex (Digest.string (Marshal.to_string datasets [ Marshal.No_sharing ]))

let golden =
  [
    ("flat-to-nested-0 p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("flat-to-nested-0-wide p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("flat-to-nested-1 p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("flat-to-nested-1-wide p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("flat-to-nested-2 p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("flat-to-nested-2-wide p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("flat-to-nested-3 p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("flat-to-nested-3-wide p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("flat-to-nested-4 p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("flat-to-nested-4-wide p=1", "b1f6d1419db897bbc9d15d24fb79d8b5");
    ("nested-to-nested-0 p=1", "2553b4f4b8e5158d1a2f21a2445cbbbe");
    ("nested-to-nested-0-wide p=1", "698ef93ece40ec749032b2385f2e7a56");
    ("nested-to-nested-1 p=1", "19fad477ad1fbdfca1fd79c1869353ec");
    ("nested-to-nested-1-wide p=1", "4b6e46cabebf8180a8599a84f2bc9a39");
    ("nested-to-nested-2 p=1", "a2b75e705adaa0711c2050ba4192a97f");
    ("nested-to-nested-2-wide p=1", "65f09618d77df8015d1c80de2fe48121");
    ("nested-to-nested-3 p=1", "cdb675ac331ea7570d392ac5f188cfae");
    ("nested-to-nested-3-wide p=1", "877089ea6df5a3a2ec1327ad37e379a2");
    ("nested-to-nested-4 p=1", "b014a423fe8a35e82c402f96b172cae1");
    ("nested-to-nested-4-wide p=1", "d0421ed47c2cf35369c1ea3eb054421b");
    ("nested-to-flat-0 p=1", "2553b4f4b8e5158d1a2f21a2445cbbbe");
    ("nested-to-flat-0-wide p=1", "698ef93ece40ec749032b2385f2e7a56");
    ("nested-to-flat-1 p=1", "19fad477ad1fbdfca1fd79c1869353ec");
    ("nested-to-flat-1-wide p=1", "4b6e46cabebf8180a8599a84f2bc9a39");
    ("nested-to-flat-2 p=1", "a2b75e705adaa0711c2050ba4192a97f");
    ("nested-to-flat-2-wide p=1", "65f09618d77df8015d1c80de2fe48121");
    ("nested-to-flat-3 p=1", "cdb675ac331ea7570d392ac5f188cfae");
    ("nested-to-flat-3-wide p=1", "877089ea6df5a3a2ec1327ad37e379a2");
    ("nested-to-flat-4 p=1", "b014a423fe8a35e82c402f96b172cae1");
    ("nested-to-flat-4-wide p=1", "d0421ed47c2cf35369c1ea3eb054421b");
    ("biomed p=1", "31149503c01a4be903ef4d5b17768172");
    ("flat-to-nested-0 p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("flat-to-nested-0-wide p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("flat-to-nested-1 p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("flat-to-nested-1-wide p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("flat-to-nested-2 p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("flat-to-nested-2-wide p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("flat-to-nested-3 p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("flat-to-nested-3-wide p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("flat-to-nested-4 p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("flat-to-nested-4-wide p=7", "59eae4cf283880a2642414c80e4c32b4");
    ("nested-to-nested-0 p=7", "a0d2f8bbb65663da504ff27da11f161a");
    ("nested-to-nested-0-wide p=7", "4b37e49b689872a9a10fd76afbab9ddf");
    ("nested-to-nested-1 p=7", "61aca208cf510249b12adfcf8f6e248b");
    ("nested-to-nested-1-wide p=7", "394cf004084eecf03b13a809ccc19b24");
    ("nested-to-nested-2 p=7", "f1096b9a3ff03164176a9010ca1c30bd");
    ("nested-to-nested-2-wide p=7", "1b164e8357fced0081dae945ebe9fc29");
    ("nested-to-nested-3 p=7", "a61bf844054beac91799040928403d52");
    ("nested-to-nested-3-wide p=7", "e1df23e4e4db54bef5cd0d8b66237a6b");
    ("nested-to-nested-4 p=7", "a5e9dda33fccb897e907464977ccaf34");
    ("nested-to-nested-4-wide p=7", "125b61353fc2ad28d88591c483dd7031");
    ("nested-to-flat-0 p=7", "a0d2f8bbb65663da504ff27da11f161a");
    ("nested-to-flat-0-wide p=7", "4b37e49b689872a9a10fd76afbab9ddf");
    ("nested-to-flat-1 p=7", "61aca208cf510249b12adfcf8f6e248b");
    ("nested-to-flat-1-wide p=7", "394cf004084eecf03b13a809ccc19b24");
    ("nested-to-flat-2 p=7", "f1096b9a3ff03164176a9010ca1c30bd");
    ("nested-to-flat-2-wide p=7", "1b164e8357fced0081dae945ebe9fc29");
    ("nested-to-flat-3 p=7", "a61bf844054beac91799040928403d52");
    ("nested-to-flat-3-wide p=7", "e1df23e4e4db54bef5cd0d8b66237a6b");
    ("nested-to-flat-4 p=7", "a5e9dda33fccb897e907464977ccaf34");
    ("nested-to-flat-4-wide p=7", "125b61353fc2ad28d88591c483dd7031");
    ("biomed p=7", "40b368a5fce728a284c4e02f5e5bf374");
    ("flat-to-nested-0 p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("flat-to-nested-0-wide p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("flat-to-nested-1 p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("flat-to-nested-1-wide p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("flat-to-nested-2 p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("flat-to-nested-2-wide p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("flat-to-nested-3 p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("flat-to-nested-3-wide p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("flat-to-nested-4 p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("flat-to-nested-4-wide p=40", "f8291f2380d363dd96412fbe75d8b432");
    ("nested-to-nested-0 p=40", "79fb7ca645f4d6936df2eb692c2d9b19");
    ("nested-to-nested-0-wide p=40", "9803552faecce7c6322630c40083fbd6");
    ("nested-to-nested-1 p=40", "876cb1084b12899d7515cc62f1de7083");
    ("nested-to-nested-1-wide p=40", "23d3338e9b6530c8b8578f0a388ac87d");
    ("nested-to-nested-2 p=40", "2a4e6d2b114aed169a56742c444f72a1");
    ("nested-to-nested-2-wide p=40", "d5cf89330a602bca4519933b8bb8a074");
    ("nested-to-nested-3 p=40", "f232cff8a0456a708e2c7b2b364659ab");
    ("nested-to-nested-3-wide p=40", "b7a13943349134ddbfeaba64996da178");
    ("nested-to-nested-4 p=40", "8076c037f2d075448102e9844173f730");
    ("nested-to-nested-4-wide p=40", "1e34a491cc0b7a25e5b467aeeb5f0608");
    ("nested-to-flat-0 p=40", "79fb7ca645f4d6936df2eb692c2d9b19");
    ("nested-to-flat-0-wide p=40", "9803552faecce7c6322630c40083fbd6");
    ("nested-to-flat-1 p=40", "876cb1084b12899d7515cc62f1de7083");
    ("nested-to-flat-1-wide p=40", "23d3338e9b6530c8b8578f0a388ac87d");
    ("nested-to-flat-2 p=40", "2a4e6d2b114aed169a56742c444f72a1");
    ("nested-to-flat-2-wide p=40", "d5cf89330a602bca4519933b8bb8a074");
    ("nested-to-flat-3 p=40", "f232cff8a0456a708e2c7b2b364659ab");
    ("nested-to-flat-3-wide p=40", "b7a13943349134ddbfeaba64996da178");
    ("nested-to-flat-4 p=40", "8076c037f2d075448102e9844173f730");
    ("nested-to-flat-4-wide p=40", "1e34a491cc0b7a25e5b467aeeb5f0608");
    ("biomed p=40", "5478fc06718f96a9110e9d6a41e34a87");
  ]

let check_table ~domains ~partitions () =
  let actual =
    List.map
      (fun ((name, _, _) as case) ->
        (Printf.sprintf "%s p=%d" name partitions, digest ~domains ~partitions case))
      cases
  in
  let golden = List.filter (fun (k, _) -> List.mem_assoc k actual) golden in
  if actual <> golden then
    Alcotest.failf "%d of %d load digests differ at %d lanes; actual:@.%s"
      (List.length
         (List.filter (fun (k, d) -> List.assoc_opt k golden <> Some d) actual))
      (List.length actual) domains
      (String.concat "\n"
         (List.map (fun (k, d) -> Printf.sprintf "    (%S, %S);" k d) actual))

(* A level holding two bag fields, [A] with an inner bag and [B]: a path
   can be first met in a later chunk than a path after it in type order. *)
let m_ty =
  Nrc.Types.(
    bag
      (tuple
         [ ("k", int_);
           ("A", bag (tuple [ ("x", int_); ("inner", bag (tuple [ ("y", int_) ])) ]));
           ("B", bag (tuple [ ("z", int_) ])) ]))

let m_row k a b = V.Tuple [ ("k", V.Int k); ("A", V.Bag a); ("B", V.Bag b) ]
let a_item x inner = V.Tuple [ ("x", V.Int x); ("inner", V.Bag inner) ]
let field name i = V.Tuple [ (name, V.Int i) ]

(* [A] and [inner] mostly empty, so [A.inner] is often first met late *)
let gen_m =
  let open QCheck.Gen in
  let few g = frequency [ (2, return []); (1, list_size (int_bound 3) g) ] in
  let int = int_bound 5 in
  let a = map2 a_item int (few (map (field "y") int)) in
  map (fun rows -> V.Bag rows) (list_size (int_bound 24) (map3 m_row int (few a) (few (map (field "z") int))))

let prop_parallel_load =
  QCheck.Test.make ~name:"a load on 2 and 4 lanes = the load on one"
    ~count:(Fixtures.qcheck_count 100)
    (QCheck.make
       ~print:(fun (inputs, partitions) ->
         Printf.sprintf "%d partitions: %s" partitions
           (String.concat "; " (List.map (fun (n, v) -> n ^ " = " ^ V.to_string v) inputs)))
       QCheck.Gen.(
         pair (map2 (fun inputs m -> inputs @ [ ("M", m) ]) Qgen.gen_inputs gen_m) (int_range 1 9)))
    (fun (inputs, partitions) ->
      let types = Qgen.inputs_ty @ [ ("M", m_ty) ] in
      let one = load ~domains:1 ~partitions types inputs in
      (match missized one with
       | None -> true
       | Some name -> QCheck.Test.fail_reportf "%s: a row's carried size is not its byte_size" name)
      && List.for_all
        (fun domains ->
          load ~domains ~partitions types inputs = one
          || QCheck.Test.fail_reportf "%d lanes differ" domains)
        [ 2; 4 ])

(* Sixteen items whose [A] is empty but for item 8's, which starts a chunk
   on 2 lanes (8 chunks) and on 4 (16): [A] and [B] are met at the first
   item, [A.inner] only there. Sites follow the depth-first first meet —
   [A], [B], [A.inner] — not type order, on every pool size. *)
let test_site_order () =
  let items =
    List.init 16 (fun i ->
        if i = 8 then m_row i [ a_item 1 [ field "y" 2 ] ] [] else m_row i [] [ field "z" i ])
  in
  List.iter
    (fun domains ->
      let loaded = load ~domains ~partitions:3 [ ("M", m_ty) ] [ ("M", V.Bag items) ] in
      (* the sites of the labels in [col] of dataset [name]'s elements *)
      let sites name col =
        List.sort_uniq compare
          (List.map
             (function
               | V.Tuple fields -> (
                 match List.assoc col fields with V.Label { site; _ } -> site | _ -> -1)
               | _ -> -1)
             (V.bag_items (Exec.Dataset.to_bag (List.assoc name loaded))))
      in
      Alcotest.(check (list (pair string (list int))))
        (Printf.sprintf "sites on %d lanes" domains)
        [ ("A", [ 1 ]); ("B", [ 2 ]); ("A.inner", [ 3 ]) ]
        [ ("A", sites "M_F" "A"); ("B", sites "M_F" "B"); ("A.inner", sites "M_D_A" "inner") ])
    [ 1; 2; 4 ]

(* Malformed nested inputs fail the load with the error a depth-first walk
   meets first, whichever lane shreds the item holding it. *)
let test_malformed () =
  let item a = V.Tuple [ ("a", V.Int a); ("q", V.Real 1.) ] in
  let n k items = V.Tuple [ ("k", V.Int k); ("name", V.Str "n"); ("items", items) ] in
  let good k = n k (V.Bag [ item k ]) in
  let cases =
    [ ("a missing attribute", V.Tuple [ ("k", V.Int 9); ("name", V.Str "n") ],
       "N: missing attribute items");
      ("an item that is no tuple", V.Int 9, "N: element type mismatch");
      ("a bag field holding no bag", n 9 (V.Int 1), "N.items: not a bag");
      ("an inner item that is no tuple", n 9 (V.Bag [ item 1; V.Str "x" ]),
       "N.items: element type mismatch");
      ("a missing inner attribute", n 9 (V.Bag [ V.Tuple [ ("a", V.Int 1) ] ]),
       "N.items: missing attribute q") ]
  in
  List.iter
    (fun (what, bad, expected) ->
      List.iter
        (fun domains ->
          (* the bad item among 40 good ones, a later bad one after it *)
          let items =
            List.init 40 (fun k -> good k) @ [ bad ] @ List.init 40 (fun k -> good k)
            @ [ n 99 (V.Bag [ V.Int 0 ]) ]
          in
          let message =
            match load ~domains ~partitions:7 Qgen.inputs_ty [ ("N", V.Bag items) ] with
            | _ -> "loaded"
            | exception Trance.Unnest.Unsupported m -> m
          in
          Alcotest.(check string) (Printf.sprintf "%s, %d lanes" what domains) expected message)
        [ 1; 2; 4 ])
    cases;
  (* a run fails typed at its load phase, with the same message *)
  let prog =
    Nrc.Program.of_expr ~inputs:Qgen.inputs_ty ~name:"Q"
      Nrc.Builder.(for_ "x" (input "N") (fun x -> sng x))
  in
  let r =
    Trance.Api.run ~strategy:(Trance.Api.Shredded { unshred = true }) prog
      [ ("R", V.Bag []); ("S", V.Bag []); ("N", V.Bag [ good 1; n 9 (V.Int 1) ]) ]
  in
  match r.Trance.Api.failure with
  | Some (Trance.Api.Error m) -> Alcotest.(check string) "Api.run" "load: N.items: not a bag" m
  | Some f -> Alcotest.failf "Api.run: %s" (Trance.Api.failure_message f)
  | None -> Alcotest.fail "Api.run: no failure"

let () =
  Alcotest.run "load"
    [
      ( "golden",
        List.concat_map
          (fun domains ->
            List.map
              (fun partitions ->
                Alcotest.test_case
                  (Printf.sprintf "%d lanes, %d partitions" domains partitions)
                  `Quick (check_table ~domains ~partitions))
              [ 1; 7; 40 ])
          [ 1; 2; 4 ] );
      ( "parallel",
        [ QCheck_alcotest.to_alcotest prop_parallel_load;
          Alcotest.test_case "malformed inputs fail at the first error" `Quick test_malformed;
          Alcotest.test_case "sites in first-meet order across chunks" `Quick test_site_order ] );
    ]
