(** Fault-injection campaign: for every corpus query, every strategy and
    every injectable fault, a single injected fault must either be
    recovered — the run still produces the reference answer, with attempt
    counts within budget and recovery cost accounted exactly in the span
    tree — or surface as a typed failure. Never a wrong answer. Injection
    is deterministic: the same seed yields the same span tree and the same
    counters, which the replay tests assert bit-for-bit. *)

module V = Nrc.Value
module F = Exec.Faults
module Trace = Exec.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let count = Fixtures.qcheck_count

let cluster = { Exec.Config.unbounded with partitions = 7; workers = 3 }

let api_config =
  { Trance.Api.default_config with cluster; trace = true }

let run_fault ?(config = api_config) ~spec strategy q =
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  Trance.Api.run
    ~config:{ config with Trance.Api.faults = spec }
    ~strategy prog Fixtures.inputs_val

(* wall-clock time is the one legitimately non-deterministic quantity a
   run reports; strip it before any replay comparison *)
let det_spans (r : Trance.Api.run) =
  Exec.Json.to_string
    (List (List.map (fun sp -> Trace.json (Trace.without_wall sp)) r.Trance.Api.trace))

let det_stats (r : Trance.Api.run) =
  Exec.Stats.strip_wall (Exec.Stats.snapshot r.Trance.Api.stats)

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_spec_parsing () =
  let ok s = match F.spec_of_string s with Ok sp -> sp | Error m -> failwith m in
  let sp = ok "crash:stage=2" in
  check "crash kind" true (sp.F.kind = F.Worker_crash);
  check_int "crash stage" 2 sp.F.stage;
  let sp = ok "task:stage=1,fails=3" in
  check "task kind" true (sp.F.kind = F.Task_failure);
  check_int "task fails" 3 sp.F.fails;
  let sp = ok "straggler:mult=6" in
  check "straggler mult" true (sp.F.multiplier = 6.);
  check_int "straggler default stage" 0 sp.F.stage;
  let sp = ok "memsqueeze:factor=0.25" in
  check "squeeze factor" true (sp.F.factor = 0.25);
  check "fetch defaults" true (ok "fetch" = F.default_spec F.Fetch_failure);
  (* canonical form round-trips *)
  List.iter
    (fun s -> check ("round-trip " ^ s) true (ok (F.spec_to_string (ok s)) = ok s))
    [ "crash:stage=2"; "task:fails=2"; "fetch:stage=3"; "straggler:mult=8";
      "memsqueeze:factor=0.5" ];
  (* rejections *)
  List.iter
    (fun s ->
      check ("reject " ^ s) true (Result.is_error (F.spec_of_string s)))
    [ "meteor"; "task:stage=-1"; "task:fails=0"; "straggler:mult=0.5";
      "memsqueeze:factor=2"; "crash:bogus=1" ]

let test_schedule_parsing () =
  let ok s =
    match F.schedule_of_string s with Ok sch -> sch | Error m -> failwith m
  in
  let sch = ok "crash:stage=2+task:stage=4,fails=2" in
  check_int "two specs" 2 (List.length sch);
  check "first is the crash" true
    ((List.nth sch 0).F.kind = F.Worker_crash
    && (List.nth sch 0).F.stage = 2);
  check "second is the task failure" true
    ((List.nth sch 1).F.kind = F.Task_failure
    && (List.nth sch 1).F.fails = 2);
  check "single spec is a one-element schedule" true
    (ok "crash:stage=2" = [ Result.get_ok (F.spec_of_string "crash:stage=2") ]);
  (* canonical form round-trips *)
  List.iter
    (fun s ->
      check ("round-trip " ^ s) true
        (ok (F.schedule_to_string (ok s)) = ok s))
    [ "crash:stage=2+task:stage=4,fails=2";
      "crash:stage=1+crash:stage=2+crash:stage=3";
      "memsqueeze:stage=0,factor=0.5+fetch:stage=3,fails=2" ];
  (* rejections: empty string, empty component, bad component *)
  List.iter
    (fun s ->
      check ("reject " ^ String.escaped s) true
        (Result.is_error (F.schedule_of_string s)))
    [ ""; "crash:stage=2+"; "+crash:stage=2"; "crash:stage=2+meteor" ]

(* the storm generator is a pure function of its arguments *)
let test_storm_deterministic () =
  let a = F.storm ~seed:7 ~first_stage:2 ~span:6 4 in
  let b = F.storm ~seed:7 ~first_stage:2 ~span:6 4 in
  check "same arguments, same storm" true (a = b);
  check_int "storm size" 4 (List.length a);
  List.iter
    (fun sp ->
      check "stage within the window" true
        (sp.F.stage >= 2 && sp.F.stage < 8))
    a;
  check "chronological" true
    (List.sort (fun x y -> compare x.F.stage y.F.stage) a = a);
  let c = F.storm ~seed:8 ~first_stage:2 ~span:6 4 in
  check "different seed, different storm" true (a <> c);
  (* storms round-trip through the CLI syntax like any schedule *)
  check "storm round-trips" true
    (F.schedule_of_string (F.schedule_to_string a) = Ok a)

(* print/parse round-trip as properties: every generated spec and every
   generated schedule survives to_string/of_string bit-for-bit, including
   the ['+'] schedule syntax *)
let gen_roundtrip_spec : F.spec QCheck.Gen.t =
  let open QCheck.Gen in
  let* kind =
    oneofl
      [ F.Worker_crash; F.Task_failure; F.Fetch_failure; F.Straggler;
        F.Mem_squeeze ]
  in
  let* stage = int_bound 9 in
  let* fails = int_range 1 9 in
  let* multiplier = map float_of_int (int_range 2 12) in
  let* factor = oneofl [ 0.125; 0.25; 0.5; 0.75 ] in
  return { (F.default_spec kind) with F.stage; fails; multiplier; factor }

let arbitrary_roundtrip_spec =
  QCheck.make ~print:F.spec_to_string gen_roundtrip_spec

let arbitrary_roundtrip_schedule =
  QCheck.make ~print:F.schedule_to_string
    QCheck.Gen.(list_size (int_range 1 6) gen_roundtrip_spec)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"spec syntax: parse (print spec) = spec"
    ~count:(count 500) arbitrary_roundtrip_spec (fun sp ->
      match F.spec_of_string (F.spec_to_string sp) with
      | Ok sp' -> F.spec_to_string sp' = F.spec_to_string sp
      | Error _ -> false)

let prop_schedule_roundtrip =
  QCheck.Test.make
    ~name:"schedule syntax: parse (print schedule) = schedule"
    ~count:(count 500) arbitrary_roundtrip_schedule (fun sch ->
      match F.schedule_of_string (F.schedule_to_string sch) with
      | Ok sch' -> F.schedule_to_string sch' = F.schedule_to_string sch
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* The differential campaign: corpus x strategy x fault x stage *)

let strategies =
  [
    ("Standard", Trance.Api.Standard, api_config);
    ("Shred+Unshred", Trance.Api.Shredded { unshred = true }, api_config);
    ( "Standard+skew",
      Trance.Api.Standard,
      { api_config with
        Trance.Api.skew_aware = true;
        cluster = { cluster with broadcast_limit = 64 } } );
  ]

let fault_specs =
  List.concat_map
    (fun stage ->
      [
        { (F.default_spec F.Worker_crash) with F.stage };
        { (F.default_spec F.Task_failure) with F.stage; fails = 2 };
        { (F.default_spec F.Fetch_failure) with F.stage; fails = 2 };
        { (F.default_spec F.Straggler) with F.stage };
      ])
    [ 1; 4 ]

let check_attempt_bounds what (spec : F.spec) (r : Trance.Api.run) =
  let s = Exec.Stats.snapshot r.Trance.Api.stats in
  let per_task = max (cluster.Exec.Config.max_task_attempts - 1) spec.F.fails in
  check (what ^ ": retried tasks bounded by partitions") true
    (s.Exec.Stats.retried_tasks <= cluster.Exec.Config.partitions);
  check (what ^ ": retries within attempt budget") true
    (s.Exec.Stats.task_retries <= s.Exec.Stats.retried_tasks * per_task)

let campaign_tests =
  List.concat_map
    (fun (name, q) ->
      List.concat_map
        (fun (sname, strategy, config) ->
          List.map
            (fun spec ->
              let what =
                Printf.sprintf "%s [%s] %s" name sname (F.spec_to_string spec)
              in
              Alcotest.test_case what `Quick (fun () ->
                  let reference = Fixtures.eval_ref q in
                  let r = run_fault ~config ~spec:[ spec ] strategy q in
                  (match r.Trance.Api.failure with
                  | None ->
                    (* recovered: the answer is the reference answer *)
                    (match r.Trance.Api.value with
                    | Some v ->
                      check (what ^ ": recovers to reference") true
                        (V.approx_bag_equal reference v)
                    | None -> Alcotest.fail (what ^ ": no value, no failure"))
                  | Some (Trance.Api.Task_failed _)
                  | Some (Trance.Api.Out_of_memory _)
                  | Some (Trance.Api.Deadline_missed _) ->
                    () (* typed failure: acceptable, never a wrong answer *)
                  | Some (Trance.Api.Error m) ->
                    Alcotest.fail (what ^ ": untyped failure " ^ m));
                  check_attempt_bounds what spec r;
                  Fixtures.check_counters_agree what r;
                  (* same seed => identical span tree and counters *)
                  let r2 = run_fault ~config ~spec:[ spec ] strategy q in
                  check (what ^ ": deterministic span tree") true
                    (det_spans r = det_spans r2);
                  check (what ^ ": deterministic counters") true
                    (det_stats r = det_stats r2)))
            fault_specs)
        strategies)
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* The memory ladder: corpus x strategy x shrinking worker budget. With
   spilling on, no budget on the ladder may fail: the run completes in
   memory, spills, or (Standard, smallest budgets) falls back to the
   shredded route — and always equals the reference answer. Spilling is
   accounting-only, so a run spills iff its in-memory peak exceeds the
   budget. *)

let ladder_tests =
  List.concat_map
    (fun (name, q) ->
      List.map
        (fun (sname, strategy, config) ->
          let what = Printf.sprintf "%s [%s]" name sname in
          Alcotest.test_case what `Quick (fun () ->
              let reference = Fixtures.eval_ref q in
              let spill_on budget =
                { config with
                  Trance.Api.cluster =
                    { config.Trance.Api.cluster with
                      worker_mem = budget;
                      spill = Exec.Config.On };
                  route_fallback = false }
              in
              let clean = run_fault ~config:(spill_on max_int) ~spec:[] strategy q in
              check (what ^ ": unbounded run succeeds") true
                (clean.Trance.Api.failure = None);
              let peak = (Exec.Stats.snapshot clean.Trance.Api.stats).Exec.Stats.peak_worker_bytes in
              List.iter
                (fun budget ->
                  let rung = Printf.sprintf "%s mem=%d" what budget in
                  let r = run_fault ~config:(spill_on budget) ~spec:[] strategy q in
                  check (rung ^ ": completes or degrades, never fails") true
                    (r.Trance.Api.failure = None);
                  (match r.Trance.Api.value with
                  | Some v ->
                    check (rung ^ ": reference answer") true
                      (V.approx_bag_equal reference v)
                  | None -> Alcotest.fail (rung ^ ": no value"));
                  check (rung ^ ": spills iff the in-memory peak overflows")
                    true
                    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.spilled_bytes > 0
                    = (peak > budget));
                  Fixtures.check_counters_agree rung r;
                  let r2 = run_fault ~config:(spill_on budget) ~spec:[] strategy q in
                  check (rung ^ ": deterministic replay") true
                    (det_spans r = det_spans r2 && det_stats r = det_stats r2))
                [ peak; max 1 (peak / 4); max 1 (peak / 16) ]))
        strategies)
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* Targeted recovery semantics *)

(* exhausting the attempt budget surfaces as a typed Task_failed, with the
   wasted attempts still accounted *)
let test_task_exhaustion () =
  let spec = { (F.default_spec F.Task_failure) with F.fails = 99 } in
  let r = run_fault ~spec:[ spec ] Trance.Api.Standard Fixtures.example1 in
  (match r.Trance.Api.failure with
  | Some (Trance.Api.Task_failed { attempts; _ }) ->
    check_int "abandoned after the full attempt budget"
      cluster.Exec.Config.max_task_attempts attempts
  | other ->
    Alcotest.failf "expected Task_failed, got %s"
      (match other with
      | None -> "success"
      | Some f -> Trance.Api.failure_message f));
  check "outcome is Failed" true (Trance.Api.outcome r = Trance.Api.Failed);
  check_int "wasted retries accounted"
    (cluster.Exec.Config.max_task_attempts - 1)
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.task_retries);
  Fixtures.check_counters_agree "task exhaustion" r

(* a worker crash is always recoverable: lineage re-execution retries every
   partition of the dead worker and the answer is unchanged *)
let test_crash_recovers () =
  let spec = F.default_spec F.Worker_crash in
  let r = run_fault ~spec:[ spec ] Trance.Api.Standard Fixtures.example1 in
  check "no failure" true (r.Trance.Api.failure = None);
  check "lost partitions were retried" true
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.task_retries > 0);
  check "outcome is Degraded" true
    (Trance.Api.outcome r = Trance.Api.Degraded);
  let reference = Fixtures.eval_ref Fixtures.example1 in
  check "answer unchanged" true
    (V.approx_bag_equal reference (Option.get r.Trance.Api.value))

(* speculation races a duplicate against the straggler and wins; without it
   the stage just waits the full multiplier out *)
let test_straggler_speculation () =
  let spec = { (F.default_spec F.Straggler) with F.multiplier = 8. } in
  let with_spec = run_fault ~spec:[ spec ] Trance.Api.Standard Fixtures.example1 in
  let no_spec_config =
    { api_config with
      Trance.Api.cluster = { cluster with speculation = false } }
  in
  let without =
    run_fault ~config:no_spec_config ~spec:[ spec ] Trance.Api.Standard
      Fixtures.example1
  in
  check_int "speculative duplicate launched" 1
    ((Exec.Stats.snapshot with_spec.Trance.Api.stats).Exec.Stats.speculative_tasks);
  check_int "no duplicate without speculation" 0
    ((Exec.Stats.snapshot without.Trance.Api.stats).Exec.Stats.speculative_tasks);
  check "speculation is never slower" true
    ((Exec.Stats.snapshot with_spec.Trance.Api.stats).Exec.Stats.sim_seconds
    <= (Exec.Stats.snapshot without.Trance.Api.stats).Exec.Stats.sim_seconds +. 1e-12);
  List.iter
    (fun (r : Trance.Api.run) ->
      check "straggler runs recover" true (r.Trance.Api.failure = None))
    [ with_spec; without ]

(* a transient fetch failure re-fetches at a shuffle site and recovers *)
let test_fetch_recovers () =
  let spec = { (F.default_spec F.Fetch_failure) with F.fails = 2 } in
  let r = run_fault ~spec:[ spec ] Trance.Api.Standard Fixtures.example1 in
  check "no failure" true (r.Trance.Api.failure = None);
  check_int "both re-fetch attempts counted" 2
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.task_retries);
  check_int "one task re-fetched" 1
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.retried_tasks)

(* with spilling off and no route fallback, a memory squeeze still
   surfaces as the typed OOM failure, with the squeezed (not the
   configured) budget reported *)
let test_memsqueeze_typed_oom () =
  let clean = run_fault ~spec:[] Trance.Api.Standard Fixtures.example1 in
  let peak = (Exec.Stats.snapshot clean.Trance.Api.stats).Exec.Stats.peak_worker_bytes in
  check "clean run has a positive peak" true (peak > 0);
  let budget = 2 * peak in
  let config =
    { api_config with
      Trance.Api.cluster =
        { cluster with worker_mem = budget; spill = Exec.Config.Off };
      route_fallback = false }
  in
  let ok = run_fault ~config ~spec:[] Trance.Api.Standard Fixtures.example1 in
  check "budget fits without the squeeze" true (ok.Trance.Api.failure = None);
  let spec = { (F.default_spec F.Mem_squeeze) with F.factor = 0.25 } in
  let r = run_fault ~config ~spec:[ spec ] Trance.Api.Standard Fixtures.example1 in
  match r.Trance.Api.failure with
  | Some (Trance.Api.Out_of_memory { budget = squeezed; _ }) ->
    check "squeezed budget reported" true (squeezed < budget);
    check "outcome is Failed" true (Trance.Api.outcome r = Trance.Api.Failed)
  | other ->
    Alcotest.failf "expected Out_of_memory, got %s"
      (match other with
      | None -> "success"
      | Some f -> Trance.Api.failure_message f)

(* the same squeeze with spilling on degrades instead of failing: the
   squeezed stages spill their build sides and the answer is unchanged *)
let test_memsqueeze_spills () =
  let clean = run_fault ~spec:[] Trance.Api.Standard Fixtures.example1 in
  let peak = (Exec.Stats.snapshot clean.Trance.Api.stats).Exec.Stats.peak_worker_bytes in
  let budget = 2 * peak in
  let config =
    { api_config with
      Trance.Api.cluster =
        { cluster with worker_mem = budget; spill = Exec.Config.On };
      route_fallback = false }
  in
  let spec = { (F.default_spec F.Mem_squeeze) with F.factor = 0.25 } in
  let r = run_fault ~config ~spec:[ spec ] Trance.Api.Standard Fixtures.example1 in
  check "squeeze recovers by spilling" true (r.Trance.Api.failure = None);
  check "outcome is Degraded" true (Trance.Api.outcome r = Trance.Api.Degraded);
  check "spilled bytes accounted" true
    ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.spilled_bytes > 0);
  let reference = Fixtures.eval_ref Fixtures.example1 in
  check "answer unchanged" true
    (V.approx_bag_equal reference (Option.get r.Trance.Api.value));
  Fixtures.check_counters_agree "squeeze spills" r;
  match r.Trance.Api.degradation with
  | Some d ->
    check "degradation records the spill" true
      (d.Trance.Api.spilled_bytes > 0 && not d.Trance.Api.fell_back)
  | None -> Alcotest.fail "expected a degradation record"

(* regression: Config.unbounded's max_int budget must survive the
   squeeze's float round-trip — never a negative or garbage budget *)
let test_effective_mem_unbounded () =
  let active factor =
    let t = F.make [ { (F.default_spec F.Mem_squeeze) with F.factor = factor } ] in
    ignore (F.on_stage (Some t) ~site:F.Compute ~partitions:4 ~workers:2);
    t
  in
  List.iter
    (fun factor ->
      let eff = F.effective_mem (Some (active factor)) max_int in
      check (Printf.sprintf "factor %g stays positive" factor) true (eff > 0);
      check (Printf.sprintf "factor %g never exceeds the budget" factor) true
        (eff <= max_int))
    [ 1.0; 0.9; 0.5; 0.25; 1e-3 ];
  check_int "finite budgets still squeeze" 500_000
    (F.effective_mem (Some (active 0.5)) 1_000_000);
  check_int "inactive squeeze is the identity" max_int
    (F.effective_mem
       (Some (F.make [ { (F.default_spec F.Mem_squeeze) with F.stage = 5 } ]))
       max_int)

(* a storm fires every spec: a two-crash schedule retries more tasks than
   either single crash alone, and still recovers to the reference answer *)
let test_storm_fires_all () =
  let crash stage = { (F.default_spec F.Worker_crash) with F.stage } in
  let one = run_fault ~spec:[ crash 1 ] Trance.Api.Standard Fixtures.example1 in
  let two =
    run_fault ~spec:[ crash 1; crash 2 ] Trance.Api.Standard Fixtures.example1
  in
  check "storm recovers" true (two.Trance.Api.failure = None);
  check "second crash pays additional retries" true
    ((Exec.Stats.snapshot two.Trance.Api.stats).Exec.Stats.task_retries
    > (Exec.Stats.snapshot one.Trance.Api.stats).Exec.Stats.task_retries);
  let reference = Fixtures.eval_ref Fixtures.example1 in
  check "storm answer unchanged" true
    (V.approx_bag_equal reference (Option.get two.Trance.Api.value));
  Fixtures.check_counters_agree "storm" two

(* a clean run is byte-identical to itself: the baseline the injected
   determinism checks rest on *)
let test_clean_deterministic () =
  let a = run_fault ~spec:[] Trance.Api.Standard Fixtures.example1 in
  let b = run_fault ~spec:[] Trance.Api.Standard Fixtures.example1 in
  check "span trees identical" true (det_spans a = det_spans b);
  check "counters identical" true (det_stats a = det_stats b);
  check "clean outcome is Completed" true
    (Trance.Api.outcome a = Trance.Api.Completed)

(* ------------------------------------------------------------------ *)
(* Random campaign: random query x random fault, never a wrong answer *)

let gen_spec : F.spec QCheck.Gen.t =
  let open QCheck.Gen in
  let* kind =
    oneofl
      [ F.Worker_crash; F.Task_failure; F.Fetch_failure; F.Straggler;
        F.Mem_squeeze ]
  in
  let* stage = int_bound 5 in
  let* fails = int_range 1 5 in
  let* multiplier = map float_of_int (int_range 2 10) in
  { (F.default_spec kind) with F.stage; fails; multiplier; factor = 0.5 }
  |> return

let arbitrary_fault_case =
  QCheck.make
    ~print:(fun (case, sp) ->
      Printf.sprintf "%s\nfault: %s" (Qgen.print_case case) (F.spec_to_string sp))
    QCheck.Gen.(pair (QCheck.gen Qgen.arbitrary_case) gen_spec)

let run_random ~spec q inputs =
  let prog = Nrc.Program.of_expr ~inputs:Qgen.inputs_ty ~name:"Q" q in
  Trance.Api.run
    ~config:{ api_config with Trance.Api.faults = [ spec ] }
    ~strategy:Trance.Api.Standard prog inputs

let prop_fault_never_wrong =
  QCheck.Test.make
    ~name:"random query x random fault: reference answer or typed failure"
    ~count:(count 150) arbitrary_fault_case (fun ((q, inputs), spec) ->
      let expected = Nrc.Eval.eval (Nrc.Eval.env_of_list inputs) q in
      let r = run_random ~spec q inputs in
      let t = Trace.agg r.Trance.Api.trace in
      let s = Exec.Stats.snapshot r.Trance.Api.stats in
      t.Trace.counters.Exec.Stats.task_retries = s.Exec.Stats.task_retries
      && t.Trace.counters.Exec.Stats.recomputed_bytes = s.Exec.Stats.recomputed_bytes
      &&
      match r.Trance.Api.failure, r.Trance.Api.value with
      | None, Some v -> V.approx_bag_equal expected v
      | None, None -> false
      | Some (Trance.Api.Task_failed _ | Trance.Api.Out_of_memory _), _ ->
        true
      (* no deadline is configured, so a Deadline_missed here is a bug *)
      | Some (Trance.Api.Deadline_missed _ | Trance.Api.Error _), _ -> false)

(* random query x random budget: the spilling layer itself (no fallback)
   always completes with the reference answer, and spills exactly when the
   in-memory peak would not fit *)
let arbitrary_budget_case =
  QCheck.make
    ~print:(fun (case, k) ->
      Printf.sprintf "%s\nbudget divisor: %d" (Qgen.print_case case) k)
    QCheck.Gen.(pair (QCheck.gen Qgen.arbitrary_case) (int_range 1 64))

let run_budget ~budget q inputs =
  let prog = Nrc.Program.of_expr ~inputs:Qgen.inputs_ty ~name:"Q" q in
  Trance.Api.run
    ~config:
      { api_config with
        Trance.Api.cluster =
          { cluster with worker_mem = budget; spill = Exec.Config.On };
        route_fallback = false }
    ~strategy:Trance.Api.Standard prog inputs

let prop_spill_never_wrong =
  QCheck.Test.make
    ~name:"random query x random budget: spilling completes with the reference answer"
    ~count:(count 100) arbitrary_budget_case (fun ((q, inputs), k) ->
      let expected = Nrc.Eval.eval (Nrc.Eval.env_of_list inputs) q in
      let clean = run_budget ~budget:max_int q inputs in
      let peak = (Exec.Stats.snapshot clean.Trance.Api.stats).Exec.Stats.peak_worker_bytes in
      let budget = max 1 (peak / k) in
      let r = run_budget ~budget q inputs in
      let t = Trace.agg r.Trance.Api.trace in
      let s = Exec.Stats.snapshot r.Trance.Api.stats in
      t.Trace.counters.Exec.Stats.spilled_bytes = s.Exec.Stats.spilled_bytes
      && t.Trace.counters.Exec.Stats.spill_rounds = s.Exec.Stats.spill_rounds
      && (s.Exec.Stats.spilled_bytes > 0) = (peak > budget)
      &&
      match r.Trance.Api.failure, r.Trance.Api.value with
      | None, Some v -> V.approx_bag_equal expected v
      | _ -> false)

let prop_fault_deterministic =
  QCheck.Test.make
    ~name:"random query x random fault: same seed, same run"
    ~count:(count 100) arbitrary_fault_case (fun ((q, inputs), spec) ->
      let a = run_random ~spec q inputs in
      let b = run_random ~spec q inputs in
      det_spans a = det_spans b
      && det_stats a = det_stats b
      && a.Trance.Api.failure = b.Trance.Api.failure)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "spec parsing",
        [
          Alcotest.test_case "parse / round-trip / reject" `Quick
            test_spec_parsing;
          Alcotest.test_case "schedule parse / round-trip / reject" `Quick
            test_schedule_parsing;
          Alcotest.test_case "storm generator is deterministic" `Quick
            test_storm_deterministic;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_spec_roundtrip; prop_schedule_roundtrip ] );
      ("corpus campaign", campaign_tests);
      ("memory ladder", ladder_tests);
      ( "recovery semantics",
        [
          Alcotest.test_case "task attempt budget exhausts typed" `Quick
            test_task_exhaustion;
          Alcotest.test_case "worker crash recovers from lineage" `Quick
            test_crash_recovers;
          Alcotest.test_case "straggler speculation first-wins" `Quick
            test_straggler_speculation;
          Alcotest.test_case "fetch failure re-fetches and recovers" `Quick
            test_fetch_recovers;
          Alcotest.test_case "memory squeeze fails typed with spilling off"
            `Quick test_memsqueeze_typed_oom;
          Alcotest.test_case "memory squeeze spills and degrades" `Quick
            test_memsqueeze_spills;
          Alcotest.test_case "effective_mem survives unbounded budgets"
            `Quick test_effective_mem_unbounded;
          Alcotest.test_case "two-crash storm fires both crashes" `Quick
            test_storm_fires_all;
          Alcotest.test_case "clean runs are deterministic" `Quick
            test_clean_deterministic;
        ] );
      ( "random campaign",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fault_never_wrong;
            prop_spill_never_wrong;
            prop_fault_deterministic;
          ] );
    ]
