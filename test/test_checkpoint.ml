(** Checkpointed recovery under fault storms, and per-run deadlines.

    The differential campaign: for every corpus query, strategy, storm
    size and checkpoint policy, the run must either recover to the
    bit-identical reference answer or fail typed — never a wrong answer —
    and the same seed must replay to the same span tree and counters.
    Checkpoints must *pay*: under a storm of two or more crashes, a run
    that checkpoints every other stage replays strictly fewer bytes than
    the same run without checkpoints, because recovery restarts from the
    last materialization instead of from the sources. Deadline-bound runs
    must never hang or silently overrun: they finish in budget or surface
    the typed [Deadline_missed] naming the deadline.

    Failing campaign runs dump their [run_json] (which embeds the
    effective config) to [$TRANCE_FAILED_RUN_DIR] so the CI artifact
    upload can collect them. *)

module V = Nrc.Value
module F = Exec.Faults
module Trace = Exec.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cluster = { Exec.Config.unbounded with partitions = 7; workers = 3 }
let api_config = { Trance.Api.default_config with cluster; trace = true }

(* dump a failing run's json for the nightly campaign's artifact upload *)
let dump_failed what (r : Trance.Api.run) =
  match Sys.getenv_opt "TRANCE_FAILED_RUN_DIR" with
  | None | Some "" -> ()
  | Some dir ->
    (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
     with Sys_error _ -> ());
    let slug =
      String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
          | _ -> '_')
        what
    in
    let path = Filename.concat dir (slug ^ ".json") in
    let oc = open_out path in
    output_string oc (Trance.Api.run_json r);
    close_out oc

let fail_with_dump what r msg =
  dump_failed what r;
  Alcotest.fail (what ^ ": " ^ msg)

let with_checkpoint ?(config = api_config) policy =
  { config with
    Trance.Api.cluster =
      { config.Trance.Api.cluster with Exec.Config.checkpoint = policy } }

let run ~config ~faults strategy q =
  let prog = Nrc.Program.of_expr ~inputs:Fixtures.inputs_ty ~name:"Q" q in
  Trance.Api.run
    ~config:{ config with Trance.Api.faults }
    ~strategy prog Fixtures.inputs_val

(* wall-clock time is the one legitimately non-deterministic quantity a
   run reports; strip it before any replay comparison *)
let det_spans (r : Trance.Api.run) =
  Exec.Json.to_string
    (List (List.map (fun sp -> Trace.json (Trace.without_wall sp)) r.Trance.Api.trace))

let det_stats (r : Trance.Api.run) =
  Exec.Stats.strip_wall (Exec.Stats.snapshot r.Trance.Api.stats)

(* ------------------------------------------------------------------ *)
(* Differential campaign: corpus x strategy x storm x policy *)

let strategies =
  [
    ("Standard", Trance.Api.Standard);
    ("Shred+Unshred", Trance.Api.Shredded { unshred = true });
  ]

let policies =
  [ Exec.Config.No_checkpoints; Exec.Config.Every 2; Exec.Config.Auto ]

let storms =
  [
    ("clean", []);
    ("storm1", F.storm ~first_stage:2 ~span:4 1);
    ("storm2", F.storm ~first_stage:2 ~span:4 2);
    ("storm3", F.storm ~first_stage:2 ~span:6 3);
    ( "crash-during-recovery",
      (* two crashes at the same stage: the second fires at the next
         eligible stage, while the first one's recovery is in the books *)
      [
        { (F.default_spec F.Worker_crash) with F.stage = 2 };
        { (F.default_spec F.Worker_crash) with F.stage = 2 };
      ] );
    ( "mixed",
      [
        { (F.default_spec F.Worker_crash) with F.stage = 2 };
        { (F.default_spec F.Task_failure) with F.stage = 3; fails = 2 };
        { (F.default_spec F.Fetch_failure) with F.stage = 4; fails = 2 };
      ] );
  ]

let campaign_tests =
  List.concat_map
    (fun (name, q) ->
      List.concat_map
        (fun (sname, strategy) ->
          List.concat_map
            (fun (storm_name, sch) ->
              List.map
                (fun policy ->
                  let what =
                    Printf.sprintf "%s [%s] %s %s" name sname storm_name
                      (Exec.Config.checkpoint_name policy)
                  in
                  Alcotest.test_case what `Quick (fun () ->
                      let reference = Fixtures.eval_ref q in
                      let config = with_checkpoint policy in
                      let r = run ~config ~faults:sch strategy q in
                      (match r.Trance.Api.failure with
                      | None -> (
                        match r.Trance.Api.value with
                        | Some v ->
                          if not (V.approx_bag_equal reference v) then
                            fail_with_dump what r
                              "recovered to a wrong answer"
                        | None ->
                          fail_with_dump what r "no value, no failure")
                      | Some
                          ( Trance.Api.Task_failed _
                          | Trance.Api.Out_of_memory _
                          | Trance.Api.Deadline_missed _ ) ->
                        () (* typed: acceptable, never a wrong answer *)
                      | Some (Trance.Api.Error m) ->
                        fail_with_dump what r ("untyped failure " ^ m));
                      Fixtures.check_counters_agree what r;
                      (* checkpoints only where the policy allows them *)
                      (match policy with
                      | Exec.Config.No_checkpoints ->
                        check_int (what ^ ": no checkpoints when off") 0
                          ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.checkpoints_written)
                      | _ -> ());
                      check (what ^ ": checkpoint bytes iff checkpoints")
                        true
                        ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.checkpoints_written
                         > 0
                        = ((Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.checkpoint_bytes
                          > 0));
                      (* same seed => identical replay *)
                      let r2 = run ~config ~faults:sch strategy q in
                      if
                        det_spans r <> det_spans r2
                        || det_stats r <> det_stats r2
                      then fail_with_dump what r "non-deterministic replay"))
                policies)
            storms)
        strategies)
    Fixtures.corpus

(* ------------------------------------------------------------------ *)
(* Checkpoints must pay: under a >=2-crash storm, every=2 replays
   strictly fewer bytes than no checkpoints — the tentpole inequality *)

let storm_pay_tests =
  List.concat_map
    (fun (name, q) ->
      List.concat_map
        (fun (sname, strategy) ->
          List.map
            (fun n ->
              let what =
                Printf.sprintf "%s [%s] %d-crash storm" name sname n
              in
              Alcotest.test_case what `Quick (fun () ->
                  (* late stages, so there is lineage worth truncating *)
                  let sch = F.storm ~first_stage:3 ~span:4 n in
                  let bare =
                    run
                      ~config:(with_checkpoint Exec.Config.No_checkpoints)
                      ~faults:sch strategy q
                  in
                  let ck =
                    run
                      ~config:(with_checkpoint (Exec.Config.Every 2))
                      ~faults:sch strategy q
                  in
                  check (what ^ ": both recover") true
                    (bare.Trance.Api.failure = None
                    && ck.Trance.Api.failure = None);
                  check (what ^ ": checkpoints were written") true
                    ((Exec.Stats.snapshot ck.Trance.Api.stats).Exec.Stats.checkpoints_written > 0);
                  check (what ^ ": lineage was truncated") true
                    ((Exec.Stats.snapshot ck.Trance.Api.stats).Exec.Stats.lineage_truncated > 0);
                  let rb = (Exec.Stats.snapshot bare.Trance.Api.stats).Exec.Stats.recomputed_bytes
                  and rc = (Exec.Stats.snapshot ck.Trance.Api.stats).Exec.Stats.recomputed_bytes in
                  if not (rc < rb) then
                    fail_with_dump what ck
                      (Printf.sprintf
                         "checkpointing did not pay: %dB recomputed with \
                          checkpoints vs %dB without"
                         rc rb);
                  (* both answers are still the reference answer *)
                  let reference = Fixtures.eval_ref q in
                  List.iter
                    (fun (r : Trance.Api.run) ->
                      check (what ^ ": reference answer") true
                        (V.approx_bag_equal reference
                           (Option.get r.Trance.Api.value)))
                    [ bare; ck ]))
            [ 2; 3; 4 ])
        strategies)
    [ List.nth Fixtures.corpus 0 ]

(* ------------------------------------------------------------------ *)
(* Deadlines: typed, never silent *)

let with_deadline d =
  { api_config with
    Trance.Api.cluster =
      { cluster with Exec.Config.deadline = Some d } }

(* an impossible deadline surfaces as Deadline_missed naming the deadline
   and the simulated time that overran it — and the message says so *)
let test_deadline_missed_typed () =
  let sch = [ { (F.default_spec F.Worker_crash) with F.stage = 1 } ] in
  let r =
    run ~config:(with_deadline 1e-9) ~faults:sch Trance.Api.Standard
      Fixtures.example1
  in
  (match r.Trance.Api.failure with
  | Some (Trance.Api.Deadline_missed { deadline; sim_seconds; stage }) ->
    check "deadline echoed" true (deadline = 1e-9);
    check "overrun recorded" true (sim_seconds > deadline);
    check "stage named" true (String.length stage > 0);
    let msg = Trance.Api.failure_message (Option.get r.Trance.Api.failure) in
    check "message names the deadline" true
      (let sub = "deadline" in
       let rec find i =
         i + String.length sub <= String.length msg
         && (String.sub msg i (String.length sub) = sub || find (i + 1))
       in
       find 0)
  | other ->
    Alcotest.failf "expected Deadline_missed, got %s"
      (match other with
      | None -> "success"
      | Some f -> Trance.Api.failure_message f));
  check "outcome is Failed" true (Trance.Api.outcome r = Trance.Api.Failed);
  (* the typed outcome also lands in run_json, schema-stable *)
  let j = Trance.Api.run_json r in
  check "run_json carries the deadline failure" true
    (let sub = "deadline" in
     let rec find i =
       i + String.length sub <= String.length j
       && (String.sub j i (String.length sub) = sub || find (i + 1))
     in
     find 0)

(* a generous deadline never changes the run *)
let test_deadline_generous_noop () =
  let sch = [ { (F.default_spec F.Worker_crash) with F.stage = 1 } ] in
  let a = run ~config:api_config ~faults:sch Trance.Api.Standard Fixtures.example1 in
  let b =
    run ~config:(with_deadline 1e9) ~faults:sch Trance.Api.Standard
      Fixtures.example1
  in
  check "no failure" true (b.Trance.Api.failure = None);
  check "identical span tree" true (det_spans a = det_spans b);
  check "identical counters" true (det_stats a = det_stats b)

(* deadline runs are bounded by construction: even an impossible deadline
   under a heavy storm returns (typed) rather than recomputing forever *)
let test_deadline_bounded_under_storm () =
  let sch = F.storm ~first_stage:1 ~span:8 6 in
  let r =
    run ~config:(with_deadline 1e-9) ~faults:sch Trance.Api.Standard
      Fixtures.example1
  in
  match r.Trance.Api.failure with
  | Some (Trance.Api.Deadline_missed _) ->
    check "outcome Failed" true (Trance.Api.outcome r = Trance.Api.Failed)
  | Some _ | None -> Alcotest.fail "expected Deadline_missed under the storm"

(* ------------------------------------------------------------------ *)
(* run_json embeds the effective config *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec find i = i + nl <= hl && (String.sub hay i nl = needle || find (i + 1)) in
  find 0

let test_run_json_embeds_config () =
  let config =
    { (with_checkpoint (Exec.Config.Every 2)) with
      Trance.Api.cluster =
        { cluster with
          Exec.Config.checkpoint = Exec.Config.Every 2;
          deadline = Some 123.5 } }
  in
  let r = run ~config ~faults:[] Trance.Api.Standard Fixtures.example1 in
  let j = Trance.Api.run_json r in
  List.iter
    (fun needle ->
      check (Printf.sprintf "run_json has %s" needle) true (contains j needle))
    [
      "\"config\":{";
      Printf.sprintf "\"workers\":%d" cluster.Exec.Config.workers;
      Printf.sprintf "\"partitions\":%d" cluster.Exec.Config.partitions;
      Printf.sprintf "\"seed\":%d" cluster.Exec.Config.seed;
      "\"checkpoint\":\"every=2\"";
      "\"deadline\":123.5";
      "\"checkpoints_written\"";
      "\"checkpoint_bytes\"";
      "\"lineage_truncated\"";
      "\"recovery_seconds\"";
    ];
  (* unbounded memory is encoded as -1, not as max_int noise *)
  check "unbounded worker_mem encodes as -1" true
    (contains j "\"worker_mem\":-1");
  (* the faults schedule itself is embedded, round-trippable *)
  let sch = [ { (F.default_spec F.Worker_crash) with F.stage = 2 } ] in
  let r2 = run ~config ~faults:sch Trance.Api.Standard Fixtures.example1 in
  check "faults schedule embedded" true
    (contains (Trance.Api.run_json r2)
       (Printf.sprintf "\"faults\":%S" (F.schedule_to_string sch)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "checkpoint"
    [
      ("differential campaign", campaign_tests);
      ("checkpoints pay", storm_pay_tests);
      ( "deadlines",
        [
          Alcotest.test_case "impossible deadline fails typed" `Quick
            test_deadline_missed_typed;
          Alcotest.test_case "generous deadline is a no-op" `Quick
            test_deadline_generous_noop;
          Alcotest.test_case "bounded even under a heavy storm" `Quick
            test_deadline_bounded_under_storm;
        ] );
      ( "run_json",
        [
          Alcotest.test_case "embeds the effective config" `Quick
            test_run_json_embeds_config;
        ] );
    ]
