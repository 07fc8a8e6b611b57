(** Tests for the execution-tracing subsystem: span-tree invariants
    (children aggregate into their parent, broadcast joins move no shuffle
    bytes of their own, guarantee-skipped joins emit no shuffle span at
    all), agreement between aggregated span metrics and the flat
    {!Exec.Stats} totals, per-step report slices merging back to the run
    totals, and the JSON export: its shape, its exact text (pinned in
    [golden/]) and the escaping of names. *)

module B = Nrc.Builder
module V = Nrc.Value
module S = Plan.Sexpr
module Op = Plan.Op
module Trace = Exec.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cluster = { Exec.Config.unbounded with partitions = 7; workers = 3 }
let api_config = { Trance.Api.default_config with cluster; trace = true }

let run_traced ?(config = api_config) strategy q =
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  Trance.Api.run ~config ~strategy prog Fixtures.inputs_val

let close a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* ------------------------------------------------------------------ *)
(* Aggregated span metrics = flat Stats totals *)

let check_totals what (r : Trance.Api.run) =
  check (what ^ ": spans recorded") true (r.Trance.Api.trace <> []);
  Fixtures.check_counters_agree what r

(* Children's inclusive totals never exceed the parent's, at every level. *)
let rec check_span_sums what (sp : Trace.span) =
  let t : Exec.Stats.snapshot = (Trace.total sp).Trace.counters in
  let kids : Exec.Stats.snapshot = (Trace.agg sp.Trace.children).Trace.counters in
  check (what ^ ": child shuffle <= parent") true
    (kids.shuffled_bytes <= t.shuffled_bytes);
  check (what ^ ": child broadcast <= parent") true
    (kids.broadcast_bytes <= t.broadcast_bytes);
  check (what ^ ": child peak <= parent") true
    (kids.peak_worker_bytes <= t.peak_worker_bytes);
  check (what ^ ": child sim <= parent") true
    (kids.sim_seconds <= t.sim_seconds +. 1e-9);
  List.iter (check_span_sums what) sp.Trace.children

(* Joins that chose broadcast move no shuffle bytes of their own and never
   open a direct shuffle span. *)
let check_broadcast_joins what (r : Trance.Api.run) =
  let bjoins =
    Trace.find_all
      (fun sp -> sp.Trace.strategy = Some Trace.Broadcast)
      r.Trance.Api.trace
  in
  List.iter
    (fun (sp : Trace.span) ->
      check_int (what ^ ": broadcast join own shuffle") 0
        sp.Trace.metrics.Trace.counters.Exec.Stats.shuffled_bytes;
      check (what ^ ": broadcast join has no shuffle child") true
        (List.for_all
           (fun (c : Trace.span) -> c.Trace.op <> "Shuffle")
           sp.Trace.children))
    bjoins

let strategies =
  [
    Trance.Api.Standard;
    Trance.Api.Shredded { unshred = true };
    Trance.Api.SparkSQL_proxy;
  ]

let invariant_tests =
  List.concat_map
    (fun (name, q) ->
      List.map
        (fun strategy ->
          let sname = Trance.Api.strategy_name strategy in
          let what = Printf.sprintf "%s [%s]" name sname in
          Alcotest.test_case what `Quick (fun () ->
              let r = run_traced strategy q in
              check (what ^ ": no failure") true (r.Trance.Api.failure = None);
              check_totals what r;
              List.iter (check_span_sums what) r.Trance.Api.trace;
              check_broadcast_joins what r))
        strategies)
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* Strategy recording on hand-built join plans *)

let keyed_bag n =
  V.Bag
    (List.init n (fun i -> V.Tuple [ ("k", V.Int (i mod 5)); ("v", V.Int i) ]))

let join_plan =
  Op.Join
    {
      left = Op.Scan { input = "L"; binder = "x" };
      right = Op.Scan { input = "R"; binder = "y" };
      lkey = [ S.Col [ "x"; "k" ] ];
      rkey = [ S.Col [ "y"; "k" ] ];
      kind = Op.Inner;
    }

let exec_traced ~config env plan =
  let stats = Exec.Stats.create () in
  let ctx = Trace.create () in
  let ds = Exec.Executor.run_plan ~trace:ctx ~config ~stats env plan in
  ignore ds;
  (stats, Trace.roots ctx)

let test_guarantee_skipped () =
  (* both sides pre-partitioned on the join key and broadcast disabled: the
     join must record Guarantee_skipped and no bytes may move *)
  let mk v = Exec.Dataset.of_bag_by ~partitions:7 ~key:[ Plan.Sexpr.Col [ "item"; "k" ] ] v in
  let env =
    Exec.Executor.env_of_list
      [ ("L", mk (keyed_bag 40)); ("R", mk (keyed_bag 25)) ]
  in
  let config = { cluster with Exec.Config.broadcast_limit = 0 } in
  let stats, roots = exec_traced ~config env join_plan in
  let joins =
    Trace.find_all
      (fun sp -> sp.Trace.strategy = Some Trace.Guarantee_skipped)
      roots
  in
  check_int "one guarantee-skipped join" 1 (List.length joins);
  let j = List.hd joins in
  check "no shuffle span under the join" true
    (Trace.find_all (fun sp -> sp.Trace.op = "Shuffle") [ j ] = []);
  check_int "no shuffled bytes in the subtree" 0
    (Trace.total j).Trace.counters.Exec.Stats.shuffled_bytes;
  check_int "flat stats agree" 0 (Exec.Stats.snapshot stats).Exec.Stats.shuffled_bytes

let test_shuffle_strategy () =
  (* unpartitioned inputs with broadcast disabled: the join must shuffle,
     recording Shuffle child spans that carry all the moved bytes *)
  let mk v = Exec.Dataset.of_bag ~partitions:7 v in
  let env =
    Exec.Executor.env_of_list
      [ ("L", mk (keyed_bag 40)); ("R", mk (keyed_bag 25)) ]
  in
  let config = { cluster with Exec.Config.broadcast_limit = 0 } in
  let stats, roots = exec_traced ~config env join_plan in
  let joins =
    Trace.find_all (fun sp -> sp.Trace.strategy = Some Trace.Shuffle) roots
  in
  check_int "one shuffle join" 1 (List.length joins);
  let j = List.hd joins in
  let shuffles = Trace.find_all (fun sp -> sp.Trace.op = "Shuffle") [ j ] in
  check "shuffle spans present" true (shuffles <> []);
  check_int "join's own shuffled bytes are zero (children carry them)" 0
    j.Trace.metrics.Trace.counters.Exec.Stats.shuffled_bytes;
  check_int "shuffle spans carry the full total"
    (Exec.Stats.snapshot stats).Exec.Stats.shuffled_bytes
    (Trace.agg shuffles).Trace.counters.Exec.Stats.shuffled_bytes

let test_broadcast_strategy () =
  (* a small right side under a generous broadcast limit: Broadcast, with
     zero shuffled bytes anywhere under the join *)
  let env =
    Exec.Executor.env_of_list
      [
        ("L", Exec.Dataset.of_bag ~partitions:7 (keyed_bag 200));
        ("R", Exec.Dataset.of_bag ~partitions:7 (keyed_bag 10));
      ]
  in
  let stats, roots = exec_traced ~config:cluster env join_plan in
  let joins =
    Trace.find_all (fun sp -> sp.Trace.strategy = Some Trace.Broadcast) roots
  in
  check_int "one broadcast join" 1 (List.length joins);
  let j = List.hd joins in
  check "broadcast bytes recorded" true
    ((Trace.total j).Trace.counters.Exec.Stats.broadcast_bytes > 0);
  check_int "flat stats agree" (Exec.Stats.snapshot stats).Exec.Stats.broadcast_bytes
    (Trace.total j).Trace.counters.Exec.Stats.broadcast_bytes;
  check "no hash-shuffle span under a broadcast join" true
    (Trace.find_all (fun sp -> sp.Trace.op = "Shuffle") [ j ] = [])

let test_skew_split_recorded () =
  (* one key owning 70% of a large input, skew-aware mode on: some join must
     record the Skew_split strategy with a positive heavy-key count *)
  let rows =
    List.init 1000 (fun i ->
        V.Tuple
          [ ("k", V.Int (if i mod 10 < 7 then 999 else i)); ("v", V.Int i) ])
  in
  let small =
    List.init 50 (fun i ->
        V.Tuple [ ("k", V.Int (if i = 0 then 999 else i)); ("w", V.Int i) ])
  in
  let tenv =
    [
      ("R", Nrc.Types.(bag (tuple [ ("k", int_); ("v", int_) ])));
      ("Sm", Nrc.Types.(bag (tuple [ ("k", int_); ("w", int_) ])));
    ]
  in
  let q =
    B.(
      for_ "x" (input "R") (fun x ->
          for_ "y" (input "Sm") (fun y ->
              where (x #. "k" == y #. "k")
                (sng (record [ ("v", x #. "v"); ("w", y #. "w") ])))))
  in
  let config =
    {
      api_config with
      skew_aware = true;
      cluster = { cluster with broadcast_limit = 1 };
    }
  in
  let r =
    Trance.Api.run ~config ~strategy:Trance.Api.Standard
      (Nrc.Program.of_expr ~inputs:tenv ~name:"Q" q)
      [ ("R", V.Bag rows); ("Sm", V.Bag small) ]
  in
  check "no failure" true (r.Trance.Api.failure = None);
  let splits =
    Trace.find_all
      (fun sp ->
        match sp.Trace.strategy with
        | Some (Trace.Skew_split { heavy_keys }) -> heavy_keys > 0
        | _ -> false)
      r.Trance.Api.trace
  in
  check "skew-split join recorded" true (splits <> [])

(* ------------------------------------------------------------------ *)
(* Step reports *)

let test_step_reports_merge () =
  let r = run_traced (Trance.Api.Shredded { unshred = true }) Fixtures.example1 in
  check "no failure" true (r.Trance.Api.failure = None);
  check "at least two steps (query + Unshred)" true
    (List.length r.Trance.Api.steps >= 2);
  check "every step carries its span tree" true
    (List.for_all
       (fun (s : Trance.Api.step_report) -> s.Trance.Api.trace <> None)
       r.Trance.Api.steps);
  let merged =
    List.fold_left
      (fun acc (s : Trance.Api.step_report) ->
        Exec.Stats.merge acc s.Trance.Api.stats)
      Exec.Stats.zero r.Trance.Api.steps
  in
  let s = Exec.Stats.snapshot r.Trance.Api.stats in
  check_int "merged shuffle = total" s.Exec.Stats.shuffled_bytes
    merged.Exec.Stats.shuffled_bytes;
  check_int "merged broadcast = total" s.Exec.Stats.broadcast_bytes
    merged.Exec.Stats.broadcast_bytes;
  check_int "merged stages = total" s.Exec.Stats.stages
    merged.Exec.Stats.stages;
  check_int "merged peak = total" s.Exec.Stats.peak_worker_bytes
    merged.Exec.Stats.peak_worker_bytes;
  check "merged sim = total" true
    (close s.Exec.Stats.sim_seconds merged.Exec.Stats.sim_seconds);
  check "step_seconds compat helper matches" true
    (List.for_all2
       (fun (name, t) (s : Trance.Api.step_report) ->
         name = s.Trance.Api.step && t = s.Trance.Api.sim_seconds)
       (Trance.Api.step_seconds r)
       r.Trance.Api.steps)

let test_trace_survives_oom () =
  (* the FAIL case (spilling off, no fallback) still reports the partial
     step slices and spans *)
  let config =
    { api_config with
      cluster =
        { cluster with worker_mem = 512; spill = Exec.Config.Off };
      route_fallback = false }
  in
  let r = run_traced ~config Trance.Api.Standard Fixtures.example1 in
  check "failure reported" true (r.Trance.Api.failure <> None);
  (match r.Trance.Api.failure with
  | Some (Trance.Api.Out_of_memory { worker_bytes; budget; _ }) ->
    check "overflow exceeds budget" true (worker_bytes > budget);
    check_int "budget is the configured one" 512 budget
  | _ -> Alcotest.fail "expected Out_of_memory");
  check "spans survive the failure" true (r.Trance.Api.trace <> [])

let test_spill_traced () =
  (* the same budget with spilling on completes; the span tree mirrors the
     spill counters exactly and the observed peak respects the budget *)
  let clean = run_traced Trance.Api.Standard Fixtures.example1 in
  let peak = (Exec.Stats.snapshot clean.Trance.Api.stats).Exec.Stats.peak_worker_bytes in
  let budget = max 1 (peak / 4) in
  let config =
    { api_config with
      cluster =
        { cluster with worker_mem = budget; spill = Exec.Config.On };
      route_fallback = false }
  in
  let r = run_traced ~config Trance.Api.Standard Fixtures.example1 in
  check "no failure with spilling on" true (r.Trance.Api.failure = None);
  check "outcome is Degraded" true
    (Trance.Api.outcome r = Trance.Api.Degraded);
  check "spill accounted" true
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.spilled_bytes > 0);
  check "post-spill peak within budget" true
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.peak_worker_bytes <= budget);
  check_totals "spill trace" r;
  check "spilling costs simulated disk time" true
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.sim_seconds
    > (Exec.Stats.snapshot clean.Trance.Api.stats).Exec.Stats.sim_seconds)

(* ------------------------------------------------------------------ *)
(* Typed failures inside a later step *)

(* Two routes with two source steps each: a two-assignment Standard
   program, and Shred+Unshred, whose reassembly is the step "Unshred". *)
let two_steps =
  [
    ( Trance.Api.Standard,
      Nrc.Program.make ~inputs:Fixtures.inputs_ty
        [ ("A", Fixtures.select_nested); ("B", Fixtures.example1) ],
      ("A", "B") );
    ( Trance.Api.Shredded { unshred = true },
      Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" Fixtures.example1,
      ("Q", "Unshred") );
  ]

let run_program ?(config = api_config) strategy prog =
  Trance.Api.run ~config ~strategy prog Fixtures.inputs_val

let failing_config f = { api_config with cluster = f cluster; route_fallback = false }

let failure_stage kind (r : Trance.Api.run) =
  match kind, r.Trance.Api.failure with
  | `Oom, Some (Trance.Api.Out_of_memory { stage; _ })
  | `Task, Some (Trance.Api.Task_failed { stage; _ })
  | `Deadline, Some (Trance.Api.Deadline_missed { stage; _ }) ->
    Some stage
  | _ -> None

(* The failing run for one failure kind, tuned from the clean run so the
   first step completes and the later one fails: a budget at the first
   step's peak, a deadline just above its simulated seconds, and a task
   fault at the first accounted-stage index that lands in the later
   step (found by scanning). *)
let failing_run kind strategy prog ~first ~later =
  let clean = run_program strategy prog in
  let slice =
    (List.find
       (fun (s : Trance.Api.step_report) -> s.Trance.Api.step = first)
       clean.Trance.Api.steps)
      .Trance.Api.stats
  in
  match kind with
  | `Oom ->
    check "the later step peaks higher than the first" true
      ((Exec.Stats.snapshot clean.Trance.Api.stats).peak_worker_bytes
      > slice.peak_worker_bytes);
    run_program strategy prog
      ~config:
        (failing_config (fun c ->
             { c with
               worker_mem = slice.peak_worker_bytes;
               spill = Exec.Config.Off }))
  | `Deadline ->
    run_program strategy prog
      ~config:
        (failing_config (fun c ->
             { c with deadline = Some (slice.sim_seconds *. 1.0001) }))
  | `Task ->
    let rec scan k =
      if k > 500 then Alcotest.fail "no task fault lands in the later step";
      let config =
        { (failing_config Fun.id) with
          faults =
            [ { (Exec.Faults.default_spec Exec.Faults.Task_failure) with
                stage = k; fails = 99 } ] }
      in
      let r = run_program ~config strategy prog in
      match failure_stage `Task r with
      | Some stage when String.starts_with ~prefix:(later ^ "/") stage -> r
      | _ -> scan (k + 1)
    in
    scan 0

let later_step_tests =
  List.concat_map
    (fun (strategy, prog, (first, later)) ->
      List.map
        (fun (kind, kname) ->
          let what =
            Printf.sprintf "%s: %s in %s" (Trance.Api.strategy_name strategy)
              kname later
          in
          Alcotest.test_case what `Quick (fun () ->
              let r = failing_run kind strategy prog ~first ~later in
              (match failure_stage kind r with
              | Some stage ->
                check (what ^ ": stage prefixed with the step") true
                  (String.starts_with ~prefix:(later ^ "/") stage)
              | None ->
                Alcotest.failf "%s: got %s" what
                  (Option.fold ~none:"no failure"
                     ~some:Trance.Api.failure_message r.Trance.Api.failure));
              Alcotest.(check (list string))
                (what ^ ": both step slices reported") [ first; later ]
                (List.map
                   (fun (s : Trance.Api.step_report) -> s.Trance.Api.step)
                   r.Trance.Api.steps);
              check (what ^ ": the partial step carries its spans") true
                ((List.nth r.Trance.Api.steps 1).Trance.Api.trace <> None)))
        [
          (`Oom, "Out_of_memory");
          (`Task, "Task_failed");
          (`Deadline, "Deadline_missed");
        ])
    two_steps

(* ------------------------------------------------------------------ *)
(* Stats snapshot/diff/merge *)

let test_snapshot_diff () =
  let s = Exec.Stats.create () in
  let charge d = Exec.Stats.charge s d in
  charge { Exec.Stats.zero with shuffled_bytes = 100; peak_worker_bytes = 400 };
  let before = Exec.Stats.snapshot s in
  charge
    {
      Exec.Stats.zero with
      shuffled_bytes = 20;
      broadcast_bytes = 7;
      stages = 1;
      rows_processed = 5;
      sim_seconds = 0.25;
      peak_worker_bytes = 300;
    };
  let slice = Exec.Stats.diff (Exec.Stats.snapshot s) before in
  check_int "diff shuffled" 20 slice.Exec.Stats.shuffled_bytes;
  check_int "diff broadcast" 7 slice.Exec.Stats.broadcast_bytes;
  check_int "diff stages" 1 slice.Exec.Stats.stages;
  check_int "diff rows" 5 slice.Exec.Stats.rows_processed;
  check "diff sim" true (slice.Exec.Stats.sim_seconds = 0.25);
  (* the peak is a run-wide high-water mark: the slice keeps after's *)
  check_int "diff peak" 400 slice.Exec.Stats.peak_worker_bytes;
  let m = Exec.Stats.merge before slice in
  check_int "merge shuffled" 120 m.Exec.Stats.shuffled_bytes;
  check_int "merge peak (max)" 400 m.Exec.Stats.peak_worker_bytes

(* ------------------------------------------------------------------ *)
(* JSON export *)

let balanced str =
  let depth = ref 0 and ok = ref true and in_str = ref false in
  let prev = ref ' ' in
  String.iter
    (fun c ->
      (if !in_str then (if c = '"' && !prev <> '\\' then in_str := false)
       else
         match c with
         | '"' -> in_str := true
         | '{' | '[' -> incr depth
         | '}' | ']' ->
           decr depth;
           if !depth < 0 then ok := false
         | _ -> ());
      (* a backslash escaping a backslash must not escape the next char *)
      prev := (if !prev = '\\' && c = '\\' then ' ' else c))
    str;
  !ok && !depth = 0 && not !in_str

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_json_export () =
  let r = run_traced (Trance.Api.Shredded { unshred = true }) Fixtures.example1 in
  let j = Trance.Api.run_json r in
  check "run json is brace-balanced" true (balanced j);
  List.iter
    (fun key ->
      check ("run json has " ^ key) true (contains j ("\"" ^ key ^ "\":")))
    [ "strategy"; "wall_seconds"; "failure"; "degradation"; "totals";
      "steps"; "trace"; "spilled_bytes"; "spill_partitions"; "spill_rounds" ];
  match r.Trance.Api.trace with
  | [] -> Alcotest.fail "no spans"
  | sp :: _ ->
    let sj = Exec.Json.to_string (Trace.json sp) in
    check "span json is brace-balanced" true (balanced sj);
    List.iter
      (fun key ->
        check ("span json has " ^ key) true (contains sj ("\"" ^ key ^ "\":")))
      [ "id"; "op"; "stage"; "strategy"; "metrics"; "total"; "children" ]

(* The exact report text, wall-clock masked: every [wall_seconds] value
   reads 0. *)
let mask_wall j =
  let key = "\"wall_seconds\":" in
  let nk = String.length key and b = Buffer.create (String.length j) in
  let rec go i =
    if i >= String.length j then ()
    else if i + nk <= String.length j && String.sub j i nk = key then begin
      Buffer.add_string b key;
      Buffer.add_char b '0';
      let k = ref (i + nk) in
      while !k < String.length j && j.[!k] <> ',' && j.[!k] <> '}' do incr k done;
      go !k
    end
    else begin
      Buffer.add_char b j.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* every setting the CI matrix sweeps through the environment is pinned,
   so the pinned text holds in every cell *)
let pinned_config =
  { api_config with
    cluster =
      { cluster with
        worker_mem = max_int; spill = Exec.Config.Off;
        checkpoint = Exec.Config.No_checkpoints; domains = 1 } }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* golden/<name>.json holds the report text of example1 down one route *)
let test_json_pinned (name, strategy) () =
  let r = run_traced ~config:pinned_config strategy Fixtures.example1 in
  Alcotest.(check string)
    (name ^ ": run_json, wall masked")
    (String.trim (read_file ("golden/" ^ name ^ ".json")))
    (mask_wall (Trance.Api.run_json r))

(* Names are data: a target and an input named with a quote, a backslash,
   a newline and a control character come out escaped wherever they
   appear, and never raw. *)
let test_json_escapes () =
  let odd c = c ^ "\"\\\n\x01" and escaped c = c ^ "\\\"\\\\\\n\\u0001\"" in
  let q = B.(for_ "x" (input (odd "I")) (fun x -> sng (record [ ("k", x #. "k") ]))) in
  let prog =
    Nrc.Program.of_expr
      ~inputs:[ (odd "I", Nrc.Types.(TBag (TTuple [ ("k", TScalar TInt) ]))) ]
      ~name:(odd "T") q
  in
  let r =
    Trance.Api.run ~config:pinned_config ~strategy:Trance.Api.Standard prog
      [ (odd "I", V.Bag [ V.Tuple [ ("k", V.Int 1) ] ]) ]
  in
  check "the run answers" true (r.Trance.Api.failure = None);
  let j = Trance.Api.run_json r in
  check "the target's step is escaped" true (contains j ("\"step\":\"" ^ escaped "T"));
  check "the input's scan is escaped" true (contains j ("\"stage\":\"" ^ escaped "I"));
  String.iter
    (fun c -> check "no raw control character" true (Char.code c >= 0x20))
    j

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ("span invariants (corpus)", invariant_tests);
      ( "join strategies",
        [
          Alcotest.test_case "guarantee-skipped: no shuffle span" `Quick
            test_guarantee_skipped;
          Alcotest.test_case "shuffle: child spans carry the bytes" `Quick
            test_shuffle_strategy;
          Alcotest.test_case "broadcast: zero shuffled bytes" `Quick
            test_broadcast_strategy;
          Alcotest.test_case "skew-split recorded" `Quick
            test_skew_split_recorded;
        ] );
      ( "step reports",
        [
          Alcotest.test_case "slices merge to totals" `Quick
            test_step_reports_merge;
          Alcotest.test_case "trace survives OOM" `Quick
            test_trace_survives_oom;
          Alcotest.test_case "spilled run traced within budget" `Quick
            test_spill_traced;
        ] );
      ("failures in a later step", later_step_tests);
      ( "stats snapshots",
        [ Alcotest.test_case "snapshot/diff/merge" `Quick test_snapshot_diff ] );
      ( "json",
        [
          Alcotest.test_case "export sanity" `Quick test_json_export;
          Alcotest.test_case "run_json pinned: Standard" `Quick
            (test_json_pinned ("example1_standard", Trance.Api.Standard));
          Alcotest.test_case "run_json pinned: Shred+Unshred" `Quick
            (test_json_pinned
               ("example1_shred_unshred", Trance.Api.Shredded { unshred = true }));
          Alcotest.test_case "names are escaped" `Quick test_json_escapes;
        ] );
    ]
