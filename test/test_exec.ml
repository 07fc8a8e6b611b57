(** Tests for the cluster simulator and the end-to-end strategies: every
    corpus query must produce the same bag under Standard, Shredded (with
    and without unshredding), SparkSQL-proxy, and skew-aware variants as the
    NRC reference interpreter; plus unit tests for datasets, shuffling
    guarantees, heavy-key detection, broadcast decisions, cogroup fusion,
    and memory-budget failures. *)

module B = Nrc.Builder
module V = Nrc.Value
module S = Plan.Sexpr
module Op = Plan.Op

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cluster = { Exec.Config.unbounded with partitions = 7; workers = 3 }

let api_config =
  { Trance.Api.default_config with cluster }

(* ------------------------------------------------------------------ *)
(* Dataset invariants *)

let test_dataset_roundtrip () =
  let bag = V.Bag (List.init 23 (fun i -> V.Int i)) in
  let ds = Exec.Dataset.of_bag ~partitions:7 bag in
  check_int "partition count" 7 (Exec.Dataset.partition_count ds);
  check_int "row count" 23 (Exec.Dataset.total_rows ds);
  check "roundtrip preserves the bag" true
    (V.bag_equal bag (Exec.Dataset.to_bag ds))

let test_dataset_key_guarantee () =
  let bag =
    V.Bag
      (List.init 40 (fun i ->
           V.Tuple [ ("k", V.Int (i mod 5)); ("v", V.Int i) ]))
  in
  let ds = Exec.Dataset.of_bag_by ~partitions:7 ~key:[ [ "k" ] ] bag in
  check "bag preserved" true (V.bag_equal bag (Exec.Dataset.to_bag ds));
  (* all values of one key live in one partition *)
  let locations = Hashtbl.create 8 in
  Array.iteri
    (fun p part ->
      Array.iter
        (fun v ->
          let k = V.field v "k" in
          match Hashtbl.find_opt locations k with
          | None -> Hashtbl.add locations k p
          | Some p' -> check "key guarantee" true (p = p'))
        part)
    ds.Exec.Dataset.parts;
  check_int "five distinct keys" 5 (Hashtbl.length locations)

(* ------------------------------------------------------------------ *)
(* Executor vs local plan interpreter on the corpus *)

let exec_plan_agree name q () =
  let plan = Trance.Unnest.translate ~tenv:Fixtures.inputs_ty q in
  let expected =
    Plan.Local_eval.eval_to_bag
      (Plan.Local_eval.env_of_list Fixtures.inputs_val)
      plan
  in
  let stats = Exec.Stats.create () in
  let env =
    Exec.Executor.env_of_list
      (List.map
         (fun (n, v) -> (n, Exec.Dataset.of_bag ~partitions:7 v))
         Fixtures.inputs_val)
  in
  let ds = Exec.Executor.run_plan ~config:cluster ~stats env plan in
  Fixtures.check_bag_equal name expected (Exec.Dataset.to_bag ds)

let executor_corpus =
  List.map
    (fun (name, q) ->
      Alcotest.test_case (name ^ " (executor = local)") `Quick
        (exec_plan_agree name q))
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* End-to-end strategies via the API *)

let strategies =
  [
    Trance.Api.Standard;
    Trance.Api.Shredded { unshred = true };
    Trance.Api.SparkSQL_proxy;
  ]

let run_strategy ?(config = api_config) strategy q =
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  Trance.Api.run ~config ~strategy prog Fixtures.inputs_val

let strategy_tests =
  List.concat_map
    (fun (name, q) ->
      List.concat_map
        (fun strategy ->
          let sname = Trance.Api.strategy_name strategy in
          [
            Alcotest.test_case
              (Printf.sprintf "%s [%s]" name sname)
              `Quick
              (fun () ->
                let r = run_strategy strategy q in
                (match r.Trance.Api.failure with
                | Some f ->
                  Alcotest.failf "%s failed: %s" sname
                    (Trance.Api.failure_message f)
                | None -> ());
                Fixtures.check_bag_equal
                  (Printf.sprintf "%s/%s" name sname)
                  (Fixtures.eval_ref q)
                  (Option.get r.Trance.Api.value));
            Alcotest.test_case
              (Printf.sprintf "%s [%s, skew-aware]" name sname)
              `Quick
              (fun () ->
                let config = { api_config with skew_aware = true } in
                let r = run_strategy ~config strategy q in
                (match r.Trance.Api.failure with
                | Some f ->
                  Alcotest.failf "%s failed: %s" sname
                    (Trance.Api.failure_message f)
                | None -> ());
                Fixtures.check_bag_equal
                  (Printf.sprintf "%s/%s skew" name sname)
                  (Fixtures.eval_ref q)
                  (Option.get r.Trance.Api.value));
          ])
        strategies)
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* Heavy-key detection *)

let test_heavy_keys () =
  (* 70% of rows share one key; sampling must flag it and only it *)
  let rows = List.init 1000 (fun i ->
      V.Tuple [ ("k", V.Int (if i mod 10 < 7 then 999 else i)); ("v", V.Int i) ])
  in
  let prog =
    B.(
      for_ "x" (input "R") (fun x ->
          for_ "y" (input "Bigger") (fun y ->
              where (x #. "k" == y #. "k")
                (sng (record [ ("k", x #. "k"); ("v2", y #. "v") ])))))
  in
  let tenv =
    [
      ("R", Nrc.Types.(bag (tuple [ ("k", int_); ("v", int_) ])));
      ("Bigger", Nrc.Types.(bag (tuple [ ("k", int_); ("v", int_) ])));
    ]
  in
  let bigger = List.init 2000 (fun i ->
      V.Tuple [ ("k", V.Int (if i < 100 then 999 else i)); ("v", V.Int i) ])
  in
  let inputs = [ ("R", V.Bag rows); ("Bigger", V.Bag bigger) ] in
  let expected = Nrc.Eval.eval (Nrc.Eval.env_of_list inputs) prog in
  (* run skew-aware with a tiny broadcast limit so only the heavy path uses
     broadcast *)
  let config =
    {
      api_config with
      skew_aware = true;
      cluster = { cluster with broadcast_limit = 1 };
    }
  in
  let p = Nrc.Program.of_expr ~inputs:tenv ~name:"Q" prog in
  let r = Trance.Api.run ~config ~strategy:Trance.Api.Standard p inputs in
  check "no failure" true (r.Trance.Api.failure = None);
  Fixtures.check_bag_equal "skew join result" expected
    (Option.get r.Trance.Api.value);
  check "heavy path broadcasts something" true
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.broadcast_bytes > 0)

let test_skew_join_less_imbalance () =
  (* with a heavy key, the skew-aware join must shuffle less than the
     skew-unaware one (heavy rows stay in place) *)
  let n = 4000 in
  let rows = List.init n (fun i ->
      V.Tuple [ ("k", V.Int (if i mod 10 < 8 then 1 else i)); ("v", V.Str (String.make 20 'x')) ])
  in
  let small = List.init 50 (fun i -> V.Tuple [ ("k", V.Int (if i = 0 then 1 else i)); ("w", V.Int i) ]) in
  let tenv =
    [
      ("R", Nrc.Types.(bag (tuple [ ("k", int_); ("v", string_) ])));
      ("Sm", Nrc.Types.(bag (tuple [ ("k", int_); ("w", int_) ])));
    ]
  in
  let inputs = [ ("R", V.Bag rows); ("Sm", V.Bag small) ] in
  let q =
    B.(
      for_ "x" (input "R") (fun x ->
          for_ "y" (input "Sm") (fun y ->
              where (x #. "k" == y #. "k")
                (sng (record [ ("v", x #. "v"); ("w", y #. "w") ])))))
  in
  let p = Nrc.Program.of_expr ~inputs:tenv ~name:"Q" q in
  let no_broadcast = { cluster with broadcast_limit = 1 } in
  let run skew =
    Trance.Api.run
      ~config:{ api_config with skew_aware = skew; cluster = no_broadcast }
      ~strategy:Trance.Api.Standard p inputs
  in
  let plain = run false and skewed = run true in
  check "same result" true
    (V.approx_bag_equal
       (Option.get plain.Trance.Api.value)
       (Option.get skewed.Trance.Api.value));
  check "skew-aware shuffles less" true
    ((Exec.Stats.snapshot skewed.Trance.Api.stats).Exec.Stats.shuffled_bytes
    < (Exec.Stats.snapshot plain.Trance.Api.stats).Exec.Stats.shuffled_bytes)

(* ------------------------------------------------------------------ *)
(* Partition and sampling invariants (property tests) *)

let arbitrary_keyed_bag =
  QCheck.make
    ~print:(fun rows -> V.to_string (V.Bag rows))
    QCheck.Gen.(
      list_size (int_bound 200)
        (map2
           (fun k v -> V.Tuple [ ("k", V.Int (k mod 9)); ("v", V.Int v) ])
           nat nat))

let prop_partition_preserves_bag =
  QCheck.Test.make ~name:"hash partitioning preserves the bag" ~count:100
    arbitrary_keyed_bag (fun rows ->
      let bag = V.Bag rows in
      let ds = Exec.Dataset.of_bag_by ~partitions:7 ~key:[ [ "k" ] ] bag in
      V.bag_equal bag (Exec.Dataset.to_bag ds)
      && Exec.Dataset.total_rows ds = List.length rows)

let prop_key_guarantee =
  QCheck.Test.make ~name:"key guarantee: one partition per key" ~count:100
    arbitrary_keyed_bag (fun rows ->
      let ds =
        Exec.Dataset.of_bag_by ~partitions:7 ~key:[ [ "k" ] ] (V.Bag rows)
      in
      let loc = Hashtbl.create 16 in
      let ok = ref true in
      Array.iteri
        (fun p part ->
          Array.iter
            (fun v ->
              let k = V.field v "k" in
              match Hashtbl.find_opt loc k with
              | None -> Hashtbl.add loc k p
              | Some p' -> if p <> p' then ok := false)
            part)
        ds.Exec.Dataset.parts;
      !ok)

let test_heavy_key_detection_bounds () =
  (* a dataset where 80% of rows share one key: that key (and only keys at
     comparable frequency) must be flagged heavy; uniform data yields none *)
  let skewed =
    List.init 2000 (fun i ->
        [ ("t", V.Tuple [ ("k", V.Int (if i mod 5 < 4 then 42 else i)) ]) ])
  in
  let uniform =
    List.init 2000 (fun i -> [ ("t", V.Tuple [ ("k", V.Int i) ]) ])
  in
  (* exercise detection through the public API: a skew-aware join on the
     heavy key must broadcast (heavy path), on uniform data it must not *)
  let tenv =
    [ ("R", Nrc.Types.(bag (tuple [ ("k", int_) ])));
      ("S2", Nrc.Types.(bag (tuple [ ("k", int_); ("w", int_) ]))) ]
  in
  let q =
    B.(
      for_ "x" (input "R") (fun x ->
          for_ "y" (input "S2") (fun y ->
              where (x #. "k" == y #. "k")
                (sng (record [ ("k", x #. "k"); ("w", y #. "w") ])))))
  in
  let s2 = List.init 50 (fun i -> V.Tuple [ ("k", V.Int (if i = 0 then 42 else i)); ("w", V.Int i) ]) in
  let mk rows = [ ("R", V.Bag (List.map (fun r -> List.assoc "t" r) rows)); ("S2", V.Bag s2) ] in
  let config =
    { api_config with
      skew_aware = true;
      cluster = { cluster with broadcast_limit = 0 } }
  in
  let run rows =
    Trance.Api.run ~config ~strategy:Trance.Api.Standard
      (Nrc.Program.of_expr ~inputs:tenv ~name:"Q" q)
      (mk rows)
  in
  let r_skew = run skewed and r_uni = run uniform in
  check "heavy key triggers broadcast path" true
    ((Exec.Stats.snapshot r_skew.Trance.Api.stats).Exec.Stats.broadcast_bytes > 0);
  check "uniform data uses no heavy path" true
    ((Exec.Stats.snapshot r_uni.Trance.Api.stats).Exec.Stats.broadcast_bytes = 0)

(* ------------------------------------------------------------------ *)
(* Memory budget: FAIL reproduction *)

let test_oom_failure () =
  (* tiny worker budget, spilling off, no fallback: the standard route on
     nested data must fail, and the API must report it as a failure, not
     raise *)
  let tiny =
    { api_config with
      cluster =
        { cluster with worker_mem = 512; spill = Exec.Config.Off };
      route_fallback = false }
  in
  let r =
    Trance.Api.run ~config:tiny ~strategy:Trance.Api.Standard
      (Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q"
         Fixtures.example1)
      Fixtures.inputs_val
  in
  check "failure reported" true (r.Trance.Api.failure <> None);
  check "no value on failure" true (r.Trance.Api.value = None)

(* ------------------------------------------------------------------ *)
(* Broadcast vs shuffle decisions *)

let test_broadcast_decision () =
  let q = Fixtures.nested_to_flat in
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  (* large broadcast limit: Part is broadcast, no shuffle for the join *)
  let r_b =
    Trance.Api.run
      ~config:{ api_config with cluster = { cluster with broadcast_limit = max_int } }
      ~strategy:Trance.Api.Standard prog Fixtures.inputs_val
  in
  let r_s =
    Trance.Api.run
      ~config:{ api_config with cluster = { cluster with broadcast_limit = 0 } }
      ~strategy:Trance.Api.Standard prog Fixtures.inputs_val
  in
  check "results agree" true
    (V.approx_bag_equal (Option.get r_b.Trance.Api.value) (Option.get r_s.Trance.Api.value));
  check "broadcast mode broadcasts" true
    ((Exec.Stats.snapshot r_b.Trance.Api.stats).Exec.Stats.broadcast_bytes > 0);
  check "shuffle mode shuffles more" true
    ((Exec.Stats.snapshot r_s.Trance.Api.stats).Exec.Stats.shuffled_bytes
    > (Exec.Stats.snapshot r_b.Trance.Api.stats).Exec.Stats.shuffled_bytes)

(* ------------------------------------------------------------------ *)
(* Shredded route shuffles less than standard on nested-to-nested *)

let test_shred_shuffles_less () =
  let no_broadcast =
    { api_config with cluster = { cluster with broadcast_limit = 0 } }
  in
  let prog =
    Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.example1
  in
  let std =
    Trance.Api.run ~config:no_broadcast ~strategy:Trance.Api.Standard prog
      Fixtures.inputs_val
  in
  let shred =
    Trance.Api.run ~config:no_broadcast
      ~strategy:(Trance.Api.Shredded { unshred = false }) prog
      Fixtures.inputs_val
  in
  check "both succeed" true
    (std.Trance.Api.failure = None && shred.Trance.Api.failure = None);
  check "shred shuffles no more than standard" true
    ((Exec.Stats.snapshot shred.Trance.Api.stats).Exec.Stats.shuffled_bytes
    <= (Exec.Stats.snapshot std.Trance.Api.stats).Exec.Stats.shuffled_bytes)

(* ------------------------------------------------------------------ *)
(* Configuration: validation and the environment hooks *)

(* one rejected value per validated field: each is refused by
   [Config.validate], and [Api.run] reports it as a typed [Error] *)
let invalid_configs =
  let c = cluster in
  [
    ("workers = 0", { c with Exec.Config.workers = 0 });
    ("partitions = 0", { c with partitions = 0 });
    ("domains = 0", { c with domains = 0 });
    ("max_task_attempts = 0", { c with max_task_attempts = 0 });
    ("cpu_weight = nan", { c with cpu_weight = Float.nan });
    ("net_weight = -1", { c with net_weight = -1. });
    ("disk_weight = inf", { c with disk_weight = Float.infinity });
    ("deadline = 0", { c with deadline = Some 0. });
  ]

let test_validate_rejects (what, c) () =
  let field = List.hd (String.split_on_char ' ' what) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Exec.Config.validate c with
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error msg -> check (what ^ ": message names the field") true (contains msg field));
  let r =
    Trance.Api.run
      ~config:{ Trance.Api.default_config with cluster = c }
      ~strategy:Trance.Api.Standard
      (Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.example1)
      Fixtures.inputs_val
  in
  match r.Trance.Api.failure with
  | Some (Trance.Api.Error msg) ->
    check (what ^ ": run fails typed") true (contains msg field);
    check (what ^ ": nothing ran") true (r.Trance.Api.steps = [])
  | _ -> Alcotest.failf "%s: expected a typed Error" what

let test_validate_accepts () =
  check "the default configuration is valid" true
    (Exec.Config.validate Exec.Config.default = Ok Exec.Config.default);
  check "a positive deadline is valid" true
    (Result.is_ok
       (Exec.Config.validate { cluster with Exec.Config.deadline = Some 1e-9 }))

let with_env vars =
  Exec.Config.with_env (fun name -> List.assoc_opt name vars) cluster

let test_env_hooks_parse () =
  match
    with_env
      [
        ("TRANCE_DOMAINS", "3");
        ("TRANCE_WORKER_MEM", "8");
        ("TRANCE_SPILL", "on");
        ("TRANCE_CHECKPOINT", "every=2");
      ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    Alcotest.(check int) "domains" 3 c.Exec.Config.domains;
    Alcotest.(check int) "worker_mem (MB)" (8 * 1048576) c.Exec.Config.worker_mem;
    check "spill" true (c.Exec.Config.spill = Exec.Config.On);
    check "checkpoint" true (c.Exec.Config.checkpoint = Exec.Config.Every 2);
    check "unbounded memory" true
      (with_env [ ("TRANCE_WORKER_MEM", "unbounded") ]
      |> Result.map (fun c -> c.Exec.Config.worker_mem)
      = Ok max_int);
    check "unset and empty variables change nothing" true
      (with_env [] = Ok cluster && with_env [ ("TRANCE_SPILL", "") ] = Ok cluster)

let test_env_hooks_reject () =
  List.iter
    (fun (var, value, accepted) ->
      match with_env [ (var, value) ] with
      | Ok _ -> Alcotest.failf "%s=%s accepted" var value
      | Error msg ->
        Alcotest.(check string)
          (var ^ "=" ^ value)
          (Printf.sprintf "%s=%S: expected %s" var value accepted)
          msg)
    [
      ("TRANCE_DOMAINS", "abc", "a domain count >= 1");
      ("TRANCE_DOMAINS", "0", "a domain count >= 1");
      ("TRANCE_WORKER_MEM", "-3", "a positive number of MB, or unbounded");
      ("TRANCE_WORKER_MEM", "abc", "a positive number of MB, or unbounded");
      ("TRANCE_SPILL", "maybe", "on or off");
      ("TRANCE_CHECKPOINT", "every=0", "off, every=K with K >= 1, or auto");
    ]

let () =
  Alcotest.run "exec"
    [
      ( "datasets",
        [
          Alcotest.test_case "of_bag/to_bag roundtrip" `Quick
            test_dataset_roundtrip;
          Alcotest.test_case "key guarantee" `Quick test_dataset_key_guarantee;
        ] );
      ("executor corpus", executor_corpus);
      ("strategies", strategy_tests);
      ( "skew",
        [
          Alcotest.test_case "heavy keys + skew join" `Quick test_heavy_keys;
          Alcotest.test_case "skew join shuffles less" `Quick
            test_skew_join_less_imbalance;
          Alcotest.test_case "heavy-key detection bounds" `Quick
            test_heavy_key_detection_bounds;
        ] );
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest prop_partition_preserves_bag;
          QCheck_alcotest.to_alcotest prop_key_guarantee;
        ] );
      ( "memory",
        [ Alcotest.test_case "OOM reported as failure" `Quick test_oom_failure ]
      );
      ( "decisions",
        [
          Alcotest.test_case "broadcast vs shuffle" `Quick
            test_broadcast_decision;
          Alcotest.test_case "shred shuffles less" `Quick
            test_shred_shuffles_less;
        ] );
      ( "config",
        List.map
          (fun (what, c) ->
            Alcotest.test_case ("rejects " ^ what) `Quick
              (test_validate_rejects (what, c)))
          invalid_configs
        @ [
            Alcotest.test_case "accepts valid configurations" `Quick
              test_validate_accepts;
            Alcotest.test_case "env hooks parse" `Quick test_env_hooks_parse;
            Alcotest.test_case "env hooks reject malformed values" `Quick
              test_env_hooks_reject;
          ] );
    ]
