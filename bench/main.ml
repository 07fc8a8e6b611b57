(** Benchmark harness regenerating every table and figure of the paper's
    evaluation (Section 6) on the cluster simulator:

    - [fig7_narrow] / [fig7_wide]: the TPC-H grids of Figure 7 — query
      families flat-to-nested / nested-to-nested / nested-to-flat at nesting
      levels 0-4 under Standard, Shred, Shred+Unshred and the SparkSQL
      proxy;
    - [fig8_skew]: Figure 8 — nested-to-nested narrow at two levels on
      increasingly skewed data (factors 0-4), skew-aware and skew-unaware;
    - [fig9_biomed]: Figure 9 — the five-step biomedical E2E pipeline on the
      full and small synthetic datasets with per-step times;
    - [ablate]: ablations of the design choices DESIGN.md calls out
      (domain elimination, cogroup fusion, aggregation pushdown);
    - [faults]: recovery overhead of each injectable fault (worker crash,
      task failure, fetch failure, straggler, memory squeeze) per strategy;
    - [recovery]: a crash-storm ladder (0-4 crashes) against each
      checkpoint policy (off / every=2 / auto), showing how checkpoints
      bound the lineage a recovery replays;
    - [memory]: graceful degradation under memory pressure — a shrinking
      per-worker budget ladder showing the in-memory / spilling /
      route-fallback crossover per strategy;
    - [scale]: multicore scaling — wall-clock seconds vs [--domains] 1/2/4/8,
      capped at the host core count, on both routes while every simulated
      counter stays bit-identical, written to BENCH_parallel.json;
    - [micro]: Bechamel micro-benchmarks of core primitives.

    Absolute numbers are simulator output; the paper-vs-measured *shape*
    comparison lives in EXPERIMENTS.md. Run all targets with
    [dune exec bench/main.exe], or a single one by name. Options:
    [--scale F] multiplies dataset sizes, [--mem MB] sets the per-worker
    memory budget (the FAIL threshold), and [--json FILE] records every run
    — totals, per-step stats slices, and per-operator span trees — as a
    JSON array. *)

let scale_factor = ref 1.0
let mem_mb : float option ref = ref None
let json_path : string option ref = ref None

let sc n = max 1 (int_of_float (float_of_int n *. !scale_factor))


(* Per-figure worker memory defaults (MB), calibrated so the simulator's
   FAIL pattern matches the paper's (see EXPERIMENTS.md); --mem overrides.
   Spilling and route fallback are pinned off here: the figures reproduce
   the paper's FAIL bars; the [memory] target turns them on explicitly. *)
let cluster ~default_mem () =
  let mem = Option.value !mem_mb ~default:default_mem in
  {
    Exec.Config.default with
    workers = 20;
    partitions = 100;
    worker_mem = int_of_float (mem *. 1048576.);
    broadcast_limit = 2 * 1024;
    spill = Exec.Config.Off;
  }

let base_config ~default_mem () =
  { Trance.Api.default_config with
    cluster = cluster ~default_mem ();
    collect = false;
    route_fallback = false;
    optimizer =
      { Plan.Optimize.default with
        unique_keys = [ ("Part", [ "pkey" ]); ("GeneMeta", [ "gid" ]) ] } }

(* All benchmark runs funnel through here so --json can record every run
   (with tracing enabled) without each figure threading a recorder. *)
let current_target = ref ""
let recorded : (string * Trance.Api.run) list ref = ref []

let api_run ~label ~(config : Trance.Api.config) ~strategy prog inputs =
  let config =
    if !json_path = None then config
    else { config with Trance.Api.trace = true }
  in
  let r = Trance.Api.run ~config ~strategy prog inputs in
  if !json_path <> None then
    recorded := (!current_target ^ "/" ^ label, r) :: !recorded;
  r

let write_file path (json : Exec.Json.t) =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc -> output_string oc (Exec.Json.to_string json ^ "\n"); close_out oc; Ok ()

(* ------------------------------------------------------------------ *)
(* Row printing *)

let header () =
  Printf.printf "%-18s %-5s %-16s %9s %9s %10s %10s %9s  %s\n" "family" "level"
    "strategy" "sim(s)" "wall(s)" "shuffleMB" "bcastMB" "peakMB" "status";
  Printf.printf "%s\n" (String.make 104 '-')

let mb b = float_of_int b /. 1048576.

let row ~family ~level ~(r : Trance.Api.run) =
  let s = Exec.Stats.snapshot r.Trance.Api.stats in
  Printf.printf "%-18s %-5s %-16s %9.3f %9.3f %10.2f %10.2f %9.2f  %s\n" family
    level r.Trance.Api.strategy
    s.Exec.Stats.sim_seconds
    r.Trance.Api.wall_seconds
    (mb s.Exec.Stats.shuffled_bytes)
    (mb s.Exec.Stats.broadcast_bytes)
    (mb s.Exec.Stats.peak_worker_bytes)
    (match r.Trance.Api.failure with
    | None -> "ok"
    | Some f -> "FAIL (" ^ Trance.Api.failure_message f ^ ")")

(* ------------------------------------------------------------------ *)
(* Figure 7 *)

let tpch_scale () =
  {
    Tpch.Generator.default_scale with
    customers = sc 300;
    orders_per_customer = 10;
    lineitems_per_order = 4;
    parts = sc 500;
    comment_width = 48;
  }

let fig7 ~wide () =
  Printf.printf "\n=== Figure 7%s: %s TPC-H queries, nesting levels 0-4 ===\n"
    (if wide then "b" else "a")
    (if wide then "wide" else "narrow");
  header ();
  let db = Tpch.Generator.generate (tpch_scale ()) in
  let config = base_config ~default_mem:0.66 () in
  let families =
    [
      Tpch.Queries.Flat_to_nested;
      Tpch.Queries.Nested_to_nested;
      Tpch.Queries.Nested_to_flat;
    ]
  in
  (* (family, level, strategy) -> run, for the claim summary *)
  let results = ref [] in
  List.iter
    (fun family ->
      List.iter
        (fun level ->
          let prog = Tpch.Queries.program ~wide ~family ~level () in
          let inputs = Tpch.Queries.input_values ~wide ~family ~level db in
          let nested_output =
            match family with
            | Tpch.Queries.Nested_to_flat -> false
            | Tpch.Queries.Flat_to_nested | Tpch.Queries.Nested_to_nested ->
              level > 0
          in
          let strategies =
            [ Trance.Api.Standard; Trance.Api.Shredded { unshred = false } ]
            @ (if nested_output then [ Trance.Api.Shredded { unshred = true } ]
               else [])
            @ [ Trance.Api.SparkSQL_proxy ]
          in
          List.iter
            (fun strategy ->
              let label =
                Printf.sprintf "%s/L%d/%s"
                  (Tpch.Queries.family_name family)
                  level
                  (Trance.Api.strategy_name strategy)
              in
              let r = api_run ~label ~config ~strategy prog inputs in
              results := ((family, level, r.Trance.Api.strategy), r) :: !results;
              row
                ~family:(Tpch.Queries.family_name family)
                ~level:(string_of_int level) ~r)
            strategies)
        [ 0; 1; 2; 3; 4 ])
    families;
  (* automated claim summary (headline bullets of Section 6) *)
  let get f l s = List.assoc_opt (f, l, s) !results in
  let counters (r : Trance.Api.run) = Exec.Stats.snapshot r.Trance.Api.stats in
  let sim r = (counters r).Exec.Stats.sim_seconds in
  let shuffled r = float_of_int (counters r).Exec.Stats.shuffled_bytes in
  let ratio num den =
    match num, den with
    | Some a, Some b -> (
      match a.Trance.Api.failure, b.Trance.Api.failure with
      | None, None when sim b > 0. -> Printf.sprintf "%.1fx" (sim a /. sim b)
      | Some _, None -> "inf (flattening FAILed)"
      | _, _ -> "n/a")
    | _ -> "n/a"
  in
  let shuffle_ratio num den =
    match num, den with
    | Some a, Some b
      when a.Trance.Api.failure = None && b.Trance.Api.failure = None
           && shuffled b > 0. ->
      Printf.sprintf "%.1fx" (shuffled a /. shuffled b)
    | _ -> "n/a"
  in
  Printf.printf "\n-- claim summary (Section 6 bullets) --\n";
  Printf.printf "C1 flat-to-nested L4, Standard vs Shred:   time %s, shuffle %s\n"
    (ratio (get Tpch.Queries.Flat_to_nested 4 "Standard")
       (get Tpch.Queries.Flat_to_nested 4 "Shred"))
    (shuffle_ratio (get Tpch.Queries.Flat_to_nested 4 "Standard")
       (get Tpch.Queries.Flat_to_nested 4 "Shred"));
  Printf.printf "C2 nested-to-nested L2, Standard vs Shred: time %s\n"
    (ratio (get Tpch.Queries.Nested_to_nested 2 "Standard")
       (get Tpch.Queries.Nested_to_nested 2 "Shred"));
  Printf.printf "C2 nested-to-nested L4, Standard vs Shred: time %s\n"
    (ratio (get Tpch.Queries.Nested_to_nested 4 "Standard")
       (get Tpch.Queries.Nested_to_nested 4 "Shred"));
  Printf.printf "C3 nested-to-flat L4, Standard vs Shred:   time %s\n"
    (ratio (get Tpch.Queries.Nested_to_flat 4 "Standard")
       (get Tpch.Queries.Nested_to_flat 4 "Shred"))

(* ------------------------------------------------------------------ *)
(* Figure 8 *)

let fig8 () =
  Printf.printf
    "\n=== Figure 8: nested-to-nested narrow, 2 levels, skew factors 0-4 ===\n";
  header ();
  let family = Tpch.Queries.Nested_to_nested and level = 2 in
  let prog = Tpch.Queries.program ~wide:false ~family ~level () in
  List.iter
    (fun skew ->
      let db = Tpch.Generator.generate { (tpch_scale ()) with skew } in
      let inputs = Tpch.Queries.input_values ~wide:false ~family ~level db in
      let run ~skew_aware strategy =
        (* the paper pushes aggregation for skew-unaware methods only:
           skew-aware methods benefit more from keeping heavy keys
           distributed (Section 6, Skew-handling) *)
        let config =
          let c = base_config ~default_mem:1.8 () in
          if skew_aware then
            { c with
              skew_aware = true;
              optimizer = { c.optimizer with push_aggs = false } }
          else c
        in
        let label =
          Printf.sprintf "s%d/%s%s" skew
            (Trance.Api.strategy_name strategy)
            (if skew_aware then "+skew" else "")
        in
        let r = api_run ~label ~config ~strategy prog inputs in
        let name = r.Trance.Api.strategy ^ if skew_aware then "+skew" else "" in
        row ~family:"n-to-n skew"
          ~level:(Printf.sprintf "s=%d" skew)
          ~r:{ r with Trance.Api.strategy = name }
      in
      run ~skew_aware:false Trance.Api.Standard;
      run ~skew_aware:false (Trance.Api.Shredded { unshred = false });
      run ~skew_aware:false (Trance.Api.Shredded { unshred = true });
      run ~skew_aware:false Trance.Api.SparkSQL_proxy;
      run ~skew_aware:true Trance.Api.Standard;
      run ~skew_aware:true (Trance.Api.Shredded { unshred = false });
      run ~skew_aware:true (Trance.Api.Shredded { unshred = true }))
    [ 0; 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Figure 9 *)

let fig9 () =
  Printf.printf "\n=== Figure 9: biomedical E2E pipeline (per-step sim s) ===\n";
  let run_dataset label scale =
    Printf.printf "\n--- %s dataset ---\n" label;
    let db = Biomed.Generator.generate scale in
    let inputs = Biomed.Generator.inputs db in
    let config = base_config ~default_mem:4.0 () in
    Printf.printf "%-14s %8s %8s %8s %8s %8s %8s %10s  %s\n" "strategy" "Step1"
      "Step2" "Step3" "Step4" "Step5" "total" "shuffleMB" "status";
    Printf.printf "%s\n" (String.make 100 '-');
    List.iter
      (fun strategy ->
        let r =
          api_run
            ~label:(label ^ "/" ^ Trance.Api.strategy_name strategy)
            ~config ~strategy Biomed.Pipeline.program inputs
        in
        let sim (s : Trance.Api.step_report) = s.stats.Exec.Stats.sim_seconds in
        let step name =
          List.fold_left
            (fun acc (s : Trance.Api.step_report) ->
              if s.step = name || (name = "Step3" && s.step = "Step3u") then acc +. sim s
              else acc)
            0. r.Trance.Api.steps
        in
        let total = List.fold_left (fun a s -> a +. sim s) 0. r.Trance.Api.steps in
        Printf.printf "%-14s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %10.2f  %s\n"
          r.Trance.Api.strategy (step "Step1") (step "Step2") (step "Step3")
          (step "Step4") (step "Step5") total
          (mb (Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.shuffled_bytes)
          (match r.Trance.Api.failure with
          | None -> "ok"
          | Some f -> "FAIL (" ^ Trance.Api.failure_message f ^ ")"))
      [
        Trance.Api.Standard;
        Trance.Api.Shredded { unshred = false };
        Trance.Api.SparkSQL_proxy;
      ]
  in
  run_dataset "full" Biomed.Generator.full_scale;
  run_dataset "small" Biomed.Generator.small_scale

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablate () =
  Printf.printf
    "\n=== Ablations of the design choices (DESIGN.md section 5) ===\n";
  header ();
  let db = Tpch.Generator.generate (tpch_scale ()) in
  let base = base_config ~default_mem:10000. () in
  let cell family level =
    ( Tpch.Queries.program ~wide:false ~family ~level (),
      Tpch.Queries.input_values ~wide:false ~family ~level db )
  in
  let n2n = cell Tpch.Queries.Nested_to_nested 2 in
  let f2n = cell Tpch.Queries.Flat_to_nested 2 in
  let cases =
    [
      (* domain elimination: shredded route, nested input *)
      ("dom-elim ON", n2n, Trance.Api.Shredded { unshred = false }, base);
      ( "dom-elim OFF",
        n2n,
        Trance.Api.Shredded { unshred = false },
        { base with
          materializer = { Trance.Materialize.domain_elimination = false } } );
      (* cogroup fusion: standard route building nested output *)
      ("cogroup ON", f2n, Trance.Api.Standard, base);
      ( "cogroup OFF",
        f2n,
        Trance.Api.Standard,
        { base with Trance.Api.cogroup = false } );
      (* aggregation pushdown: standard route with the Part join *)
      ("push-agg ON", n2n, Trance.Api.Standard, base);
      ( "push-agg OFF",
        n2n,
        Trance.Api.Standard,
        { base with optimizer = { base.optimizer with push_aggs = false } } );
    ]
  in
  List.iter
    (fun (label, (prog, inputs), strategy, config) ->
      let r = api_run ~label ~config ~strategy prog inputs in
      row ~family:label ~level:"2" ~r)
    cases

(* ------------------------------------------------------------------ *)
(* Scaling sweep: growth of each strategy with top-level cardinality and
   inner-collection size (the dimensions Section 6 varies). *)

let scaling () =
  Printf.printf
    "\n=== Scaling: nested-to-nested L2, sim seconds per strategy ===\n";
  let family = Tpch.Queries.Nested_to_nested and level = 2 in
  let prog = Tpch.Queries.program ~wide:false ~family ~level () in
  let config = base_config ~default_mem:10000. () in
  let run_cell label scale =
    let db = Tpch.Generator.generate scale in
    let inputs = Tpch.Queries.input_values ~wide:false ~family ~level db in
    List.map
      (fun strategy ->
        let r =
          api_run
            ~label:(label ^ "/" ^ Trance.Api.strategy_name strategy)
            ~config ~strategy prog inputs
        in
        (Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.sim_seconds)
      [
        Trance.Api.Standard;
        Trance.Api.Shredded { unshred = false };
        Trance.Api.Shredded { unshred = true };
      ]
  in
  Printf.printf "%-34s %10s %10s %10s\n" "dataset" "Standard" "Shred" "Shred+U";
  Printf.printf "%s\n" (String.make 70 '-');
  (* top-level cardinality sweep *)
  List.iter
    (fun c ->
      let label = Printf.sprintf "customers=%d" c in
      let ts = run_cell label { (tpch_scale ()) with customers = c } in
      Printf.printf "%-34s %10.4f %10.4f %10.4f\n" label (List.nth ts 0)
        (List.nth ts 1) (List.nth ts 2))
    [ sc 150; sc 300; sc 600; sc 1200 ];
  (* inner-collection-size sweep *)
  List.iter
    (fun lpo ->
      let label = Printf.sprintf "lineitems_per_order=%d" lpo in
      let ts = run_cell label { (tpch_scale ()) with lineitems_per_order = lpo } in
      Printf.printf "%-34s %10.4f %10.4f %10.4f\n" label (List.nth ts 0)
        (List.nth ts 1) (List.nth ts 2))
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Cost-model validation: does the estimator rank standard vs shredded the
   way the simulator measures it? (Section 8 future work, built here.) *)

let cost_model () =
  Printf.printf
    "\n=== Cost model: estimated vs measured standard/shredded ranking ===\n";
  Printf.printf "%-18s %-5s %12s %12s %10s %10s %7s\n" "family" "level"
    "est(std)" "est(shred)" "sim(std)" "sim(shred)" "agree";
  Printf.printf "%s\n" (String.make 82 '-');
  let db = Tpch.Generator.generate (tpch_scale ()) in
  let config = base_config ~default_mem:10000. () in
  let agree = ref 0 and total = ref 0 in
  List.iter
    (fun family ->
      List.iter
        (fun level ->
          let prog = Tpch.Queries.program ~family ~level () in
          let inputs = Tpch.Queries.input_values ~family ~level db in
          let rec_ = Trance.Cost.recommend ~config prog inputs in
          let sim strategy =
            let label =
              Printf.sprintf "%s/L%d/%s"
                (Tpch.Queries.family_name family)
                level
                (Trance.Api.strategy_name strategy)
            in
            let r = api_run ~label ~config ~strategy prog inputs in
            (Exec.Stats.snapshot r.Trance.Api.stats).Exec.Stats.sim_seconds
          in
          let t_std = sim Trance.Api.Standard in
          let t_shred = sim (Trance.Api.Shredded { unshred = false }) in
          let measured = if t_shred <= t_std then `Shredded else `Standard in
          let ok = measured = rec_.Trance.Cost.pick in
          incr total;
          if ok then incr agree;
          Printf.printf "%-18s %-5d %12.3g %12.3g %10.4f %10.4f %7s\n"
            (Tpch.Queries.family_name family)
            level rec_.Trance.Cost.standard_cost rec_.Trance.Cost.shredded_cost
            t_std t_shred
            (if ok then "yes" else "NO"))
        [ 1; 2; 3; 4 ])
    [
      Tpch.Queries.Flat_to_nested;
      Tpch.Queries.Nested_to_nested;
      Tpch.Queries.Nested_to_flat;
    ];
  Printf.printf "ranking agreement: %d/%d cells\n" !agree !total

(* ------------------------------------------------------------------ *)
(* Recovery overhead: each injectable fault vs the clean run, per
   strategy. The clean answer never changes (the differential suite checks
   that); this measures what recovery costs in simulated time and bytes. *)

let faults_sweep () =
  Printf.printf
    "\n=== Fault recovery overhead: nested-to-nested L2, one fault/run ===\n";
  let family = Tpch.Queries.Nested_to_nested and level = 2 in
  let prog = Tpch.Queries.program ~wide:false ~family ~level () in
  let db = Tpch.Generator.generate (tpch_scale ()) in
  let inputs = Tpch.Queries.input_values ~wide:false ~family ~level db in
  let base = base_config ~default_mem:10000. () in
  (* the memory squeeze only bites against a finite budget: give it a
     tight one and let it spill rather than FAIL *)
  let squeezed (c : Trance.Api.config) =
    { c with
      Trance.Api.cluster =
        { c.Trance.Api.cluster with
          worker_mem = 1048576;
          spill = Exec.Config.On } }
  in
  let keep c = c in
  let fault_specs =
    [
      ("none", [], keep);
      ( "crash:stage=1",
        [ Exec.Faults.default_spec Exec.Faults.Worker_crash ],
        keep );
      ( "task:stage=1,fails=2",
        [
          { (Exec.Faults.default_spec Exec.Faults.Task_failure) with
            Exec.Faults.stage = 1;
            fails = 2 };
        ],
        keep );
      ( "fetch:stage=1,fails=2",
        [
          { (Exec.Faults.default_spec Exec.Faults.Fetch_failure) with
            Exec.Faults.stage = 1;
            fails = 2 };
        ],
        keep );
      ( "straggler:stage=1,mult=8",
        [
          { (Exec.Faults.default_spec Exec.Faults.Straggler) with
            Exec.Faults.stage = 1 };
        ],
        keep );
      ( "memsqueeze:factor=0.25 @1MB",
        [
          { (Exec.Faults.default_spec Exec.Faults.Mem_squeeze) with
            Exec.Faults.factor = 0.25 };
        ],
        squeezed );
    ]
  in
  Printf.printf "%-16s %-26s %9s %9s %7s %7s %10s %10s %6s  %s\n" "strategy"
    "fault" "sim(s)" "overhead" "retries" "spec" "recompKB" "spilledKB"
    "rounds" "outcome";
  Printf.printf "%s\n" (String.make 118 '-');
  List.iter
    (fun strategy ->
      let clean = ref 0. in
      List.iter
        (fun (fname, sch, tweak) ->
          let config = tweak { base with Trance.Api.faults = sch } in
          let label =
            Printf.sprintf "%s/%s" (Trance.Api.strategy_name strategy) fname
          in
          let r = api_run ~label ~config ~strategy prog inputs in
          let s = Exec.Stats.snapshot r.Trance.Api.stats in
          let sim = s.Exec.Stats.sim_seconds in
          if sch = [] then clean := sim;
          let overhead =
            if sch = [] || !clean <= 0. then "-"
            else Printf.sprintf "%+.1f%%" ((sim /. !clean -. 1.) *. 100.)
          in
          Printf.printf "%-16s %-26s %9.4f %9s %7d %7d %10.1f %10.1f %6d  %s\n"
            r.Trance.Api.strategy fname sim overhead
            s.Exec.Stats.task_retries
            s.Exec.Stats.speculative_tasks
            (float_of_int s.Exec.Stats.recomputed_bytes /. 1024.)
            (float_of_int s.Exec.Stats.spilled_bytes /. 1024.)
            s.Exec.Stats.spill_rounds
            (Trance.Api.outcome_name (Trance.Api.outcome r)))
        fault_specs)
    [
      Trance.Api.Standard;
      Trance.Api.Shredded { unshred = false };
      Trance.Api.Shredded { unshred = true };
    ]

(* ------------------------------------------------------------------ *)
(* Recovery ladder: escalate from a clean run to a 4-crash storm and show
   what each checkpoint policy buys. Without checkpoints the lineage a
   crash replays grows with the run, so recomputed bytes climb with storm
   size; every=2 bounds the replay window and Auto places checkpoints only
   where the break-even test under the configured fault rate says they pay
   for themselves. *)

let recovery_sweep () =
  Printf.printf
    "\n\
     === Bounded recovery: crash-storm ladder x checkpoint policy \
     (nested-to-nested L2, shredded) ===\n";
  let family = Tpch.Queries.Nested_to_nested and level = 2 in
  let prog = Tpch.Queries.program ~wide:false ~family ~level () in
  let db = Tpch.Generator.generate (tpch_scale ()) in
  let inputs = Tpch.Queries.input_values ~wide:false ~family ~level db in
  let base = base_config ~default_mem:10000. () in
  let policies =
    [
      Exec.Config.No_checkpoints; Exec.Config.Every 2; Exec.Config.Auto;
    ]
  in
  Printf.printf "%-8s %-10s %9s %10s %6s %12s %9s %11s  %s\n" "storm"
    "checkpoint" "sim(s)" "recompKB" "ckpts" "checkpointKB" "truncKB"
    "recovery(s)" "outcome";
  Printf.printf "%s\n" (String.make 102 '-');
  List.iter
    (fun n ->
      let sch = if n = 0 then [] else Exec.Faults.storm ~first_stage:2 n in
      List.iter
        (fun policy ->
          let config =
            { base with
              Trance.Api.faults = sch;
              cluster =
                { base.Trance.Api.cluster with
                  Exec.Config.checkpoint = policy;
                  (* give Auto a fault rate matching the storm it faces,
                     not the quiet default *)
                  fault_rate = (if n = 0 then 0.05 else 0.5) } }
          in
          let label =
            Printf.sprintf "storm=%d/%s" n (Exec.Config.checkpoint_name policy)
          in
          let r =
            api_run ~label ~config
              ~strategy:(Trance.Api.Shredded { unshred = true })
              prog inputs
          in
          let s = Exec.Stats.snapshot r.Trance.Api.stats in
          Printf.printf "%-8d %-10s %9.4f %10.1f %6d %12.1f %9.1f %11.4f  %s\n"
            n
            (Exec.Config.checkpoint_name policy)
            s.Exec.Stats.sim_seconds
            (float_of_int s.Exec.Stats.recomputed_bytes /. 1024.)
            s.Exec.Stats.checkpoints_written
            (float_of_int s.Exec.Stats.checkpoint_bytes /. 1024.)
            (float_of_int s.Exec.Stats.lineage_truncated /. 1024.)
            s.Exec.Stats.recovery_seconds
            (Trance.Api.outcome_name (Trance.Api.outcome r)))
        policies)
    [ 0; 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Memory pressure: sweep the per-worker budget from comfortable to
   starved and show the in-memory / spilling / fell-back crossover. The
   ladder is calibrated against the clean Standard peak so the same
   regimes appear at any --scale. *)

let memory () =
  Printf.printf
    "\n=== Memory pressure: nested-to-nested L2, shrinking worker budgets ===\n";
  let family = Tpch.Queries.Nested_to_nested and level = 2 in
  let prog = Tpch.Queries.program ~wide:false ~family ~level () in
  let db = Tpch.Generator.generate (tpch_scale ()) in
  let inputs = Tpch.Queries.input_values ~wide:false ~family ~level db in
  let base = base_config ~default_mem:10000. () in
  let calibrate =
    api_run ~label:"calibrate/Standard" ~config:base
      ~strategy:Trance.Api.Standard prog inputs
  in
  let peak =
    (Exec.Stats.snapshot calibrate.Trance.Api.stats).Exec.Stats.peak_worker_bytes
  in
  Printf.printf "clean Standard peak: %.1fKB per worker\n\n" (float_of_int peak /. 1024.);
  let variants =
    [
      ( "Standard (spill off)",
        Trance.Api.Standard,
        fun (c : Trance.Api.config) -> c );
      ( "Standard (spill on)",
        Trance.Api.Standard,
        fun (c : Trance.Api.config) ->
          { c with
            Trance.Api.route_fallback = true;
            cluster =
              { c.Trance.Api.cluster with
                spill = Exec.Config.On;
                max_spill_rounds = 8 } } );
      ( "Shred+U (spill on)",
        Trance.Api.Shredded { unshred = true },
        fun (c : Trance.Api.config) ->
          { c with
            Trance.Api.cluster =
              { c.Trance.Api.cluster with spill = Exec.Config.On } } );
    ]
  in
  Printf.printf "%-22s %9s %9s %10s %6s %6s  %s\n" "strategy" "memKB" "sim(s)"
    "spilledMB" "parts" "rounds" "regime";
  Printf.printf "%s\n" (String.make 86 '-');
  List.iter
    (fun frac ->
      List.iter
        (fun (vname, strategy, tweak) ->
          let budget = max 1 (int_of_float (float_of_int peak *. frac)) in
          let config =
            tweak
              { base with
                Trance.Api.cluster =
                  { (cluster ~default_mem:10000. ()) with worker_mem = budget } }
          in
          let label = Printf.sprintf "%s/%.3fxpeak" vname frac in
          let r = api_run ~label ~config ~strategy prog inputs in
          let s = Exec.Stats.snapshot r.Trance.Api.stats in
          let regime =
            if Trance.Api.outcome r = Trance.Api.Failed then "FAIL"
            else if r.Trance.Api.abandoned <> None then
              "fell back to " ^ r.Trance.Api.strategy
            else if s.Exec.Stats.spilled_bytes > 0 then "spilling"
            else "in-memory"
          in
          Printf.printf "%-22s %9.1f %9.4f %10.2f %6d %6d  %s\n" vname
            (float_of_int budget /. 1024.)
            s.Exec.Stats.sim_seconds
            (mb s.Exec.Stats.spilled_bytes)
            s.Exec.Stats.spill_partitions
            s.Exec.Stats.spill_rounds
            regime)
        variants;
      print_newline ())
    [ 1.25; 0.5; 0.25; 1. /. 16.; 1. /. 64. ]

(* ------------------------------------------------------------------ *)
(* Domain scaling: sweep --domains over both routes and show wall-clock
   speedup while every simulated counter stays bit-identical (the parallel
   executor's contract: domains are a pure speed knob). The sweep stops at
   the host's core count: more domains than cores measures
   oversubscription, not scaling. Also written to BENCH_parallel.json, with
   the core count, for the CI artifact. *)

let scale_domains () =
  Printf.printf
    "\n\
     === Domain scaling: wall seconds vs --domains (sim counters \
     bit-identical) ===\n";
  let cells =
    [
      ("n-to-n/L2", Tpch.Queries.Nested_to_nested, 2, tpch_scale ());
      ("f-to-n/L4", Tpch.Queries.Flat_to_nested, 4, tpch_scale ());
      ( "n-to-n/L4-large",
        Tpch.Queries.Nested_to_nested,
        4,
        { (tpch_scale ()) with customers = sc 1200 } );
    ]
  in
  let strategies =
    [ Trance.Api.Standard; Trance.Api.Shredded { unshred = true } ]
  in
  let cores = Domain.recommended_domain_count () in
  let domain_counts =
    List.sort_uniq compare
      (cores :: List.filter (fun d -> d <= cores) [ 1; 2; 4; 8 ])
  in
  Printf.printf "host cores (Domain.recommended_domain_count): %d\n" cores;
  let runs = ref [] in
  Printf.printf "%-18s %-16s %7s %9s %9s %8s %6s\n" "cell" "strategy" "domains"
    "wall(s)" "sim(s)" "speedup" "sim=";
  Printf.printf "%s\n" (String.make 82 '-');
  List.iter
    (fun (cname, family, level, scale) ->
      let db = Tpch.Generator.generate scale in
      let prog = Tpch.Queries.program ~wide:false ~family ~level () in
      let inputs = Tpch.Queries.input_values ~wide:false ~family ~level db in
      List.iter
        (fun strategy ->
          let base = base_config ~default_mem:10000. () in
          (* wall and stripped counters at domains=1: the speedup
             denominator and the bit-identity reference *)
          let baseline = ref None in
          List.iter
            (fun domains ->
              let config =
                { base with
                  Trance.Api.cluster =
                    { base.Trance.Api.cluster with Exec.Config.domains } }
              in
              let label =
                Printf.sprintf "%s/%s/d%d" cname
                  (Trance.Api.strategy_name strategy)
                  domains
              in
              let r = api_run ~label ~config ~strategy prog inputs in
              let wall = r.Trance.Api.wall_seconds in
              let snap =
                Exec.Stats.strip_wall (Exec.Stats.snapshot r.Trance.Api.stats)
              in
              let speedup, identical =
                match !baseline with
                | None ->
                  baseline := Some (wall, snap);
                  (1.0, true)
                | Some (w1, s1) ->
                  ((if wall > 0. then w1 /. wall else 0.), s1 = snap)
              in
              let sim = snap.Exec.Stats.sim_seconds in
              Printf.printf "%-18s %-16s %7d %9.3f %9.3f %7.2fx %6s\n" cname
                r.Trance.Api.strategy domains wall sim speedup
                (if identical then "yes" else "NO");
              runs :=
                Exec.Json.Obj
                  [ ("cell", String cname); ("strategy", String r.Trance.Api.strategy);
                    ("domains", Int domains); ("wall_seconds", Float wall);
                    ("sim_seconds", Float sim); ("speedup", Float speedup);
                    ("sim_identical", Bool identical) ]
                :: !runs)
            domain_counts)
        strategies)
    cells;
  match
    write_file "BENCH_parallel.json"
      (Obj [ ("host_cores", Int cores); ("runs", List (List.rev !runs)) ])
  with
  | Error msg -> Fmt.epr "cannot write BENCH_parallel.json: %s@." msg
  | Ok () -> Printf.printf "\nwrote BENCH_parallel.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let micro () =
  Printf.printf "\n=== Micro-benchmarks (Bechamel, monotonic clock) ===\n";
  let open Bechamel in
  let db =
    Tpch.Generator.generate { (tpch_scale ()) with customers = 60; parts = 100 }
  in
  let cop2 = Tpch.Generator.nested_input ~level:2 db in
  let cop2_ty = Tpch.Queries.nested_input_ty ~level:2 () in
  let q2 =
    Tpch.Queries.program ~family:Tpch.Queries.Nested_to_nested ~level:2 ()
  in
  let inputs2 =
    Tpch.Queries.input_values ~family:Tpch.Queries.Nested_to_nested ~level:2 db
  in
  (* Gamma-plus as nested-standard runs it: 2,400 rows, each its own id,
     whose 11 other G-keys the id determines and sibling rows (8 per
     parent) share physically; the combine's partials go to the reduce
     with their hashes *)
  let gamma_plus =
    let module V = Nrc.Value in
    let keys = List.init 11 (fun j -> Printf.sprintf "k%d" j) in
    let names = Array.of_list (("id" :: keys) @ [ "q" ]) in
    let parent p =
      Array.init 11 (fun j ->
          match j mod 4 with
          | 0 -> V.Str (Printf.sprintf "name%d" (p mod 50))
          | 1 -> V.Int p
          | 2 -> if p mod 7 = 0 then V.Null else V.Bool (p mod 3 = 0)
          | _ -> V.Real (float_of_int p /. 4.))
    in
    let parents = Array.init 300 parent in
    let rows =
      Plan.Kernel.sized
        (Array.init 2400 (fun i ->
             Array.concat [ [| V.Int i |]; parents.(i / 8); [| V.Real (float_of_int (i mod 13)) |] ]))
    in
    let col c = Plan.Sexpr.Col [ c ] in
    let ids = { Plan.Op.unique = [ "id" ]; determines = [ ("id", keys) ] } in
    let gkeys = List.map (fun c -> (c, col c)) ("id" :: keys) and always = Plan.Sexpr.Const (V.Bool true) in
    let out, combine =
      Plan.Kernel.nest_sum_combine ~ids ~keys:gkeys ~agg_keys:[] ~aggs:[ ("s", col "q") ]
        ~presence:always names
    in
    let _, reduce =
      Plan.Kernel.nest_sum_reduce ~ids ~keys:gkeys ~agg_keys:[] ~aggs:[ ("s", col "q") ] out
    in
    fun () ->
      let partials, hashes = combine rows in
      ignore (reduce hashes partials)
  in
  let tests =
    [
      Test.make ~name:"nest_sum_combine_reduce" (Staged.stage gamma_plus);
      Test.make ~name:"value_shred_L2"
        (Staged.stage (fun () ->
             ignore (Trance.Shred_value.shred_env [ ("COP", cop2_ty) ] [ ("COP", cop2) ])));
      Test.make ~name:"compile_standard_L2"
        (Staged.stage (fun () -> ignore (Trance.Api.compile_standard q2)));
      Test.make ~name:"compile_shredded_L2"
        (Staged.stage (fun () -> ignore (Trance.Api.compile_shredded q2)));
      Test.make ~name:"nrc_eval_n2n_L2"
        (Staged.stage (fun () -> ignore (Nrc.Program.eval_result q2 inputs2)));
      Test.make ~name:"tpch_nested_input_L4"
        (Staged.stage (fun () -> ignore (Tpch.Generator.nested_input ~level:4 db)));
    ]
  in
  let clock = Bechamel.Toolkit.Instance.monotonic_clock in
  List.iter
    (fun t ->
      let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
      let results =
        Benchmark.all cfg [ clock ] (Test.make_grouped ~name:"micro" [ t ])
      in
      let analyzed =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Printf.printf "%-32s %14.1f ns/run\n" name est
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("fig7_narrow", fun () -> fig7 ~wide:false ());
    ("fig7_wide", fun () -> fig7 ~wide:true ());
    ("fig8_skew", fig8);
    ("fig9_biomed", fig9);
    ("ablate", ablate);
    ("scaling", scaling);
    ("cost_model", cost_model);
    ("faults", faults_sweep);
    ("recovery", recovery_sweep);
    ("memory", memory);
    ("scale", scale_domains);
    ("micro", micro);
  ]

let write_json path =
  let run (label, r) =
    Exec.Json.Obj [ ("label", String label); ("run", Trance.Api.run_report r) ]
  in
  match write_file path (List (List.rev_map run !recorded)) with
  | Error msg ->
      Fmt.epr "cannot write JSON report: %s@." msg;
      exit 1
  | Ok () -> ()

(* ------------------------------------------------------------------ *)
(* Command line *)

open Cmdliner

let scale_arg =
  Arg.(
    value & opt float 1.0
    & info [ "scale" ] ~docv:"F" ~doc:"Multiply dataset sizes by $(docv).")

let mem_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "mem" ] ~docv:"MB"
        ~doc:
          "Per-worker memory budget in MB, overriding the per-figure \
           defaults (the FAIL threshold).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Record every run — totals, per-step stats slices, per-operator \
           span trees — and write them as a JSON array to $(docv).")

let targets_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"TARGET"
        ~doc:
          "Benchmark targets to run, in order (default: all). Available: \
           fig7_narrow, fig7_wide, fig8_skew, fig9_biomed, ablate, scaling, \
           cost_model, faults, recovery, memory, scale, micro.")

let main scale mem json ts =
  scale_factor := scale;
  mem_mb := mem;
  json_path := json;
  let requested = match ts with [] -> List.map fst all_targets | ts -> ts in
  match
    List.find_opt (fun t -> not (List.mem_assoc t all_targets)) requested
  with
  | Some t ->
    Printf.eprintf "unknown target %s (available: %s)\n" t
      (String.concat ", " (List.map fst all_targets));
    1
  | None ->
    List.iter
      (fun t ->
        current_target := t;
        (List.assoc t all_targets) ())
      requested;
    Option.iter
      (fun path ->
        write_json path;
        Printf.printf "\nwrote %d run reports to %s\n"
          (List.length !recorded) path)
      json;
    Printf.printf
      "\nDone. See EXPERIMENTS.md for the paper-vs-measured comparison.\n";
    0

let () =
  let info =
    Cmd.info "bench"
      ~doc:
        "Regenerate the paper's evaluation figures and tables on the cluster \
         simulator."
  in
  exit
    (Cmd.eval'
       (Cmd.v info Term.(const main $ scale_arg $ mem_arg $ json_arg $ targets_arg)))
