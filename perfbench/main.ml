(* The repository benchmark: wall time per nested query, end to end and
   layer by layer.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
     main.exe --verify-pins

   [--trace 0] runs NAME as a closed loop with one client: the next
   [Trance.Api.run] starts only after the previous one returned. Tracing
   is off and every answer is checked. [--trace 1] instead decomposes the
   query, calling each layer's public entry point in the order
   [Api.run] does and timing each call from here; the spans are kept in
   memory and written to FILE at the end. [--verify-pins] checks the
   pinned references of the default seed against [Nrc.Eval].

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. *)

(* Configurations list every field on top of a default record, so that
   no environment hook can change a workload and a field added later
   keeps its default instead of breaking this build. *)
[@@@warning "-23"]

module V = Nrc.Value
module Api = Trance.Api

(* Pinned references hold for this seed only; any other seed is checked
   against [Nrc.Eval]. *)
let default_seed = 1

(* Input generations per run; [setup_s] is their median. *)
let setups = 11

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = {
  name : string;
  strategy : Api.strategy;
  program : Nrc.Program.t;
  config : seed:int -> Api.config;
  generate : seed:int -> (string * V.t) list;
}

let cluster ~seed ~domains ~worker_mem ~spill ~checkpoint =
  {
    Exec.Config.default with
    workers = 20;
    partitions = 100;
    worker_mem;
    broadcast_limit = 2 * 1024;
    sample_per_partition = 40;
    heavy_threshold = 0.025;
    cpu_weight = 1e-8;
    net_weight = 4e-8;
    seed;
    max_task_attempts = 4;
    speculation = true;
    spill;
    max_spill_rounds = 256;
    disk_weight = 2e-8;
    checkpoint;
    checkpoint_replication = 3;
    fault_rate = 0.05;
    deadline = None;
    domains;
  }

let api_config ~cluster ~faults ~route_fallback =
  {
    Api.default_config with
    cluster;
    skew_aware = false;
    cogroup = true;
    optimizer =
      {
        Plan.Optimize.default with
        push_selects = true;
        prune_columns = true;
        push_aggs = true;
        unique_keys = [ ("Part", [ "pkey" ]) ];
      };
    materializer = { Trance.Materialize.default with domain_elimination = true };
    collect = true;
    trace = false;
    faults;
    route_fallback;
  }

(* TPC-H nested-to-nested, narrow, level 4. Without [storm]: unbounded
   memory and no faults. With it: a three-crash storm, a 1 MB worker budget
   with spilling, checkpoints every two stages and route fallback, so that
   every recovery, spill and checkpoint path fires. *)
let tpch ~name ~customers ~strategy ~domains ~storm =
  let family = Tpch.Queries.Nested_to_nested and level = 4 in
  {
    name;
    strategy;
    program = Tpch.Queries.program ~wide:false ~family ~level ();
    config =
      (fun ~seed ->
        let worker_mem, spill, checkpoint, faults =
          if storm then
            ( 1024 * 1024,
              Exec.Config.On,
              Exec.Config.Every 2,
              Exec.Faults.storm ~first_stage:2 3 )
          else (max_int, Exec.Config.Off, Exec.Config.No_checkpoints, [])
        in
        api_config
          ~cluster:(cluster ~seed ~domains ~worker_mem ~spill ~checkpoint)
          ~faults ~route_fallback:storm);
    generate =
      (fun ~seed ->
        let db =
          Tpch.Generator.generate
            {
              Tpch.Generator.default_scale with
              customers;
              orders_per_customer = 10;
              lineitems_per_order = 4;
              parts = 500;
              skew = 0;
              comment_width = 48;
              seed;
            }
        in
        Tpch.Queries.input_values ~wide:false ~family ~level db);
  }

let workloads =
  [
    tpch ~name:"nested-standard" ~customers:300 ~strategy:Api.Standard
      ~domains:1 ~storm:false;
    tpch ~name:"shredded-storm-d2" ~customers:1200
      ~strategy:(Api.Shredded { unshred = true })
      ~domains:2 ~storm:true;
  ]

(* ------------------------------------------------------------------ *)
(* Answer digests and references *)

(* A digest that tolerates floating-point summation order: the reals are
   zeroed before hashing ([Value.hash] ignores bag order) and checked
   through their count and total magnitude instead. *)
type digest = { rows : int; shape : int; reals : int; real_mass : float }

let digest v =
  let reals = ref 0 and mass = ref 0. in
  let rec strip = function
    | V.Real r ->
      incr reals;
      mass := !mass +. Float.abs r;
      V.Real 0.
    | V.Tuple fs -> V.Tuple (List.map (fun (n, x) -> (n, strip x)) fs)
    | V.Bag xs -> V.Bag (List.map strip xs)
    | V.Label l -> V.Label { l with args = List.map strip l.args }
    | v -> v
  in
  let shape = V.hash (strip v) in
  { rows = List.length (V.bag_items v); shape; reals = !reals; real_mass = !mass }

let digest_agrees a b =
  a.rows = b.rows && a.shape = b.shape && a.reals = b.reals
  && Float.abs (a.real_mass -. b.real_mass) <= 1e-6 *. (1. +. Float.abs b.real_mass)

(* What a query must reproduce: its answer's digest and its simulated
   counters (the stats snapshot without wall time). *)
type reference = { answer : digest; counters : Exec.Stats.snapshot }

let agrees (r : reference) (o : reference) =
  digest_agrees r.answer o.answer && r.counters = o.counters

let counters_of stats = Exec.Stats.strip_wall (Exec.Stats.snapshot stats)

let observe (r : Api.run) : (reference, string) result =
  match r.Api.failure, r.Api.value with
  | Some f, _ -> Error (Api.failure_message f)
  | None, None -> Error "no answer collected"
  | None, Some v -> Ok { answer = digest v; counters = counters_of r.Api.stats }

(* The references of [default_seed], printed by [--verify-pins]. *)
let pins : (string * reference) list =
  [
    ( "nested-standard",
      {
        answer = { rows = 5; shape = 2196565432490112; reals = 11848; real_mass = 0x1.d6b80e5c28f5ep+23 };
        counters =
          {
            Exec.Stats.zero with
            shuffled_bytes = 9869570;
            broadcast_bytes = 0;
            peak_worker_bytes = 68450500;
            rows_processed = 81661;
            stages = 7;
            sim_seconds = 0x1.bc62b7853ceb5p+0;
            task_retries = 0;
            retried_tasks = 0;
            speculative_tasks = 0;
            recomputed_bytes = 0;
            spilled_bytes = 0;
            spill_partitions = 0;
            spill_rounds = 0;
            checkpoints_written = 0;
            checkpoint_bytes = 0;
            lineage_truncated = 0;
            recovery_seconds = 0x0p+0;
          };
      } );
    ( "shredded-storm-d2",
      {
        answer = { rows = 5; shape = 8758319213618286; reals = 47403; real_mass = 0x1.e0a38631eb841p+25 };
        counters =
          {
            Exec.Stats.zero with
            shuffled_bytes = 25556646;
            broadcast_bytes = 37800;
            peak_worker_bytes = 1042028;
            rows_processed = 353349;
            stages = 14;
            sim_seconds = 0x1.5e8e468a8dc5ap+0;
            task_retries = 15;
            retried_tasks = 15;
            speculative_tasks = 0;
            recomputed_bytes = 175455;
            spilled_bytes = 2813801;
            spill_partitions = 11;
            spill_rounds = 11;
            checkpoints_written = 14;
            checkpoint_bytes = 19588953;
            lineage_truncated = 69199252;
            recovery_seconds = 0x1.0f6780957d49fp-11;
          };
      } );
  ]

(* ------------------------------------------------------------------ *)
(* Clocks and host *)

external now : unit -> float = "perfbench_monotonic_seconds"

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mb bytes = float_of_int bytes /. 1048576.

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    Option.bind line (fun l -> int_of_string_opt (String.trim l))

(* Print the host facts; refuse a workload that wants more domains than
   the host has cores, which would measure oversubscription. *)
let check_host (config : Api.config) =
  let recommended = Domain.recommended_domain_count () in
  let cores = Option.value (nproc ()) ~default:recommended in
  Printf.printf "host: nproc=%d recommended_domain_count=%d ocaml=%s\n" cores
    recommended Sys.ocaml_version;
  let domains = config.Api.cluster.Exec.Config.domains in
  if domains > min cores recommended then begin
    Printf.eprintf "perfbench: workload needs %d domains, host has %d cores\n"
      domains (min cores recommended);
    exit 3
  end

(* the "config" object of [Api.run_json]: flat, so it ends at the first '}' *)
let config_json (r : Api.run) =
  let j = Api.run_json r and key = "\"config\":" in
  let rec find i =
    if String.sub j i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let start = find 0 in
  String.sub j start (String.index_from j start '}' - start + 1)

(* ------------------------------------------------------------------ *)
(* Queries *)

type sample = {
  wall : float;
  cpu : float;
  result : (reference, string) result;
}

let api_query w ~config inputs =
  let t0 = now () and c0 = cpu_now () in
  let run =
    try Ok (Api.run ~config ~strategy:w.strategy w.program inputs)
    with e -> Error (Printexc.to_string e)
  in
  let wall = now () -. t0 and cpu = cpu_now () -. c0 in
  let result = Result.bind run observe in
  (run, { wall; cpu; result })

let setup w ~seed =
  let times = ref [] and inputs = ref [] in
  for _ = 1 to setups do
    inputs := [];
    Gc.full_major ();
    let t0 = now () in
    inputs := w.generate ~seed;
    times := (now () -. t0) :: !times
  done;
  (median !times, !inputs)

(* The reference the timed queries must reproduce, and a check to run
   after them: the pin at the default seed, else the first warm-up's
   answer and counters, whose answer must then equal [Nrc.Eval]'s. Only
   this first answer is kept; later ones are dropped once digested, so
   they do not count in [peak_heap_mb]. *)
let reference w ~seed inputs (first_run, (first : sample)) =
  match List.assoc_opt w.name pins, first.result, first_run with
  | Some pin, result, _ when seed = default_seed ->
    (Some pin, fun () -> Result.fold ~ok:(agrees pin) ~error:(fun _ -> false) result)
  | _, Ok obs, Ok { Api.value = Some value; _ } ->
    ( Some obs,
      fun () ->
        let t0 = now () in
        let expected = Nrc.Program.eval_result w.program inputs in
        let ok = V.approx_bag_equal expected value in
        Printf.printf "answer = Nrc.Eval: %b (evaluated in %.3fs)\n" ok
          (now () -. t0);
        ok )
  | _, Error msg, _ ->
    Printf.printf "warm-up query failed: %s\n" msg;
    (None, fun () -> false)
  | _ -> (None, fun () -> false)

(* A query fails if it raised, ended [Failed], or disagrees with the
   reference; every query fails if the reference itself did not hold. *)
let count_failed ~reference_ok reference samples =
  let ok (s : sample) =
    match reference, s.result with
    | Some r, Ok o -> reference_ok && agrees r o
    | _ -> false
  in
  List.length (List.filter (fun s -> not (ok s)) samples)

let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, value, unit) -> Printf.printf "%-26s %.6g %s\n" name value unit)
    metrics;
  let m =
    String.concat ","
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name value
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed m

(* ------------------------------------------------------------------ *)
(* End to end: the closed loop, tracing off *)

let end_to_end w ~seed ~seconds =
  let config = w.config ~seed in
  check_host config;
  let setup_s, inputs = setup w ~seed in
  (* one untimed warm-up query: the first query of a process pays for heap
     growth and, on two domains, for domain start-up *)
  let first = api_query w ~config inputs in
  (match fst first with
  | Ok r -> Printf.printf "config: %s\n" (config_json r)
  | Error msg -> Printf.printf "config: unavailable (%s)\n" msg);
  (* The heap high-water mark of set-up and the warm-up query: later
     queries in the loop raise it by however far the major collector
     happens to lag, which varies from run to run by a third. *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let reference, check_reference = reference w ~seed inputs first in
  let deadline = now () +. seconds in
  (* Every timed query starts from a fully collected heap, as Bechamel's
     [stabilize] does between samples, so that no query sweeps garbage
     left by the one before it. *)
  let rec loop acc =
    if acc <> [] && now () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      loop (snd (api_query w ~config inputs) :: acc)
    end
  in
  let timed = loop [] in
  let reference_ok = check_reference () in
  let attempted = List.length timed in
  let failed = count_failed ~reference_ok reference timed in
  Printf.printf
    "workload %s seed %d: %d timed queries after 1 warm-up, failed_share %g\n"
    w.name seed attempted
    (float_of_int failed /. float_of_int attempted);
  let walls = List.map (fun s -> s.wall) timed
  and cpus = List.map (fun s -> s.cpu) timed in
  Printf.printf "median query %.6f s, median cpu %.6f s\n" (median walls)
    (median cpus);
  (* The fastest query, not the median: on a shared host other tenants slow
     whole stretches of seconds by up to half, which moved run medians by a
     quarter, while every run still sees some uncontended queries. *)
  let fastest l = List.fold_left Float.min infinity l in
  result_line ~correct:(failed = 0) ~attempted ~failed
    [
      ("query_min_s", fastest walls, "s");
      ("cpu_min_s", fastest cpus, "s");
      ("peak_heap_mb", peak_heap_mb, "MB");
      ("setup_s", setup_s, "s");
    ]

(* ------------------------------------------------------------------ *)
(* Layer by layer: the traced decomposition *)

type span = {
  id : int;
  query : int;
  name : string;
  parent : int;  (** 0 for a query's root span *)
  start : float;  (** seconds since the benchmark started *)
  stop : float;
  cpu_s : float;
  alloc_mb : float;
  major_gcs : int;
}

let origin = now ()
let spans : span list ref = ref []
let next_id = ref 0

let allocated_words (s : Gc.stat) =
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let with_span ~query ~parent name f =
  incr next_id;
  let id = !next_id in
  let g0 = Gc.quick_stat () and c0 = cpu_now () and t0 = now () in
  let r = f id in
  let t1 = now () and c1 = cpu_now () and g1 = Gc.quick_stat () in
  spans :=
    {
      id;
      query;
      name;
      parent;
      start = t0 -. origin;
      stop = t1 -. origin;
      cpu_s = c1 -. c0;
      alloc_mb =
        (allocated_words g1 -. allocated_words g0)
        *. float_of_int (Sys.word_size / 8)
        /. 1048576.;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    }
    :: !spans;
  r

(* [Api.run_once], one public call at a time: reset the id and label-site
   counters, one fault injector, one checkpoint manager and one pool for
   every assignment. Returns the answer and the stripped counters. *)
let traced_query w ~(config : Api.config) inputs ~query =
  with_span ~query ~parent:0 "query" (fun root ->
      let span name f = with_span ~query ~parent:root name (fun _ -> f ()) in
      let cluster = config.Api.cluster in
      Exec.Executor.reset_ids ();
      Trance.Shred_type.reset_sites ();
      let stats = Exec.Stats.create () in
      let faults =
        match config.Api.faults with
        | [] -> None
        | sch -> Some (Exec.Faults.make ~seed:cluster.Exec.Config.seed sch)
      in
      let checkpoint = Exec.Checkpoint.make cluster in
      let options =
        {
          Exec.Executor.skew_aware = config.Api.skew_aware;
          cogroup = config.Api.cogroup;
        }
      in
      let p = w.program in
      let plans, unshred_plan, load, result =
        match w.strategy with
        | Api.Shredded { unshred } ->
          let c = span "compile" (fun () -> Api.compile_shredded ~config p) in
          ( c.Api.plans,
            (if unshred then c.Api.unshred_plan else None),
            Api.load_shredded_inputs,
            c.Api.pipeline.Trance.Shred_pipeline.top )
        | Api.Standard | Api.SparkSQL_proxy ->
          ( span "compile" (fun () -> Api.compile_standard ~config p),
            None,
            Api.load_inputs,
            Nrc.Program.result_name p )
      in
      let env =
        span "load" (fun () -> load ~cluster p.Nrc.Program.inputs inputs)
      in
      Exec.Pool.with_pool ~domains:cluster.Exec.Config.domains (fun pool ->
          let run_plan plan =
            Exec.Executor.run_plan ~options ?faults ~checkpoint ~pool
              ~config:cluster ~stats env plan
          in
          with_span ~query ~parent:root "execute" (fun exec ->
              List.iter
                (fun (name, plan) ->
                  with_span ~query ~parent:exec ("execute." ^ name) (fun _ ->
                      Hashtbl.replace env name (run_plan plan)))
                plans);
          (* without an unshred plan this layer only picks the result *)
          let out =
            span "unshred" (fun () ->
                match unshred_plan with
                | Some u -> run_plan u
                | None -> Hashtbl.find env result)
          in
          let value = span "collect" (fun () -> Exec.Dataset.to_bag out) in
          (value, counters_of stats)))

(* Api's attribution of an assignment to its source step:
   Step1_D_genes -> Step1 *)
let step_of targets name =
  if List.mem name targets then name
  else
    match
      List.find_opt
        (fun t ->
          let n = String.length t in
          String.length name > n && String.sub name 0 n = t && name.[n] = '_')
        targets
    with
    | Some t -> t
    | None -> name

let query_spans query = List.filter (fun s -> s.query = query) !spans

(* Wall seconds per source step of one traced query ([execute.<step>.s]),
   summed over the step's assignment spans. The steps differ between
   workloads, so these are printed, not part of the fixed metric set. *)
let step_times w ~query =
  let targets =
    List.map (fun a -> a.Nrc.Program.target) w.program.Nrc.Program.assignments
  in
  let pre = "execute." in
  let n = String.length pre in
  List.map
    (fun step ->
      ( step,
        List.fold_left
          (fun acc s ->
            if
              String.length s.name > n
              && String.sub s.name 0 n = pre
              && step_of targets (String.sub s.name n (String.length s.name - n))
                 = step
            then acc +. (s.stop -. s.start)
            else acc)
          0. (query_spans query) ))
    targets

(* the per-layer values of one traced query, from its spans *)
let layers_of ~query (c : Exec.Stats.snapshot) =
  let find name = List.find (fun s -> s.name = name) (query_spans query) in
  let dur name = (fun s -> s.stop -. s.start) (find name) in
  let execute_s = dur "execute" in
  [
    ("compile.s", dur "compile", "s");
    ("load.s", dur "load", "s");
    ("load.alloc_mb", (find "load").alloc_mb, "MB");
    ("execute.s", execute_s, "s");
    ("execute.cpu_s", (find "execute").cpu_s, "s");
    ("execute.alloc_mb", (find "execute").alloc_mb, "MB");
    ("execute.major_gcs", float_of_int (find "execute").major_gcs, "count");
    ( "execute.rows_per_s",
      float_of_int c.Exec.Stats.rows_processed /. execute_s,
      "rows/s" );
    ("unshred.s", dur "unshred", "s");
    ("unshred.alloc_mb", (find "unshred").alloc_mb, "MB");
    ("collect.s", dur "collect", "s");
    ("sim.seconds", c.Exec.Stats.sim_seconds, "sim_s");
      ("sim.rows", float_of_int c.Exec.Stats.rows_processed, "count");
      ("sim.shuffled_mb", mb c.Exec.Stats.shuffled_bytes, "MB");
      ("sim.broadcast_mb", mb c.Exec.Stats.broadcast_bytes, "MB");
      ("sim.stages", float_of_int c.Exec.Stats.stages, "count");
      ("sim.peak_worker_mb", mb c.Exec.Stats.peak_worker_bytes, "MB");
      ("recovery.task_retries", float_of_int c.Exec.Stats.task_retries, "count");
      ("recovery.recomputed_mb", mb c.Exec.Stats.recomputed_bytes, "MB");
      ( "recovery.checkpoints",
        float_of_int c.Exec.Stats.checkpoints_written,
        "count" );
      ("recovery.checkpoint_mb", mb c.Exec.Stats.checkpoint_bytes, "MB");
      ("spill.mb", mb c.Exec.Stats.spilled_bytes, "MB");
    ("spill.rounds", float_of_int c.Exec.Stats.spill_rounds, "count");
  ]

let write_spans file =
  let oc = open_out file in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"id\":%d,\"query\":%d,\"name\":\"%s\",\"parent\":%d,\"start\":%.9f,\"end\":%.9f}"
        (if i = 0 then "" else ",")
        s.id s.query s.name s.parent s.start s.stop)
    (List.sort (fun a b -> compare a.id b.id) !spans);
  output_string oc "\n]\n";
  close_out oc

(* Alternate untraced [Api.run] calls and traced decompositions for
   [seconds]; each per-layer metric is the median over traced queries. *)
let layered w ~seed ~seconds ~spans_file =
  let config = w.config ~seed in
  check_host config;
  let _, inputs = setup w ~seed in
  let first = api_query w ~config inputs in
  let reference, check_reference = reference w ~seed inputs first in
  let deadline = now () +. seconds in
  let rec loop query acc =
    if query > 1 && now () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      let _, untraced = api_query w ~config inputs in
      Gc.full_major ();
      let t0 = now () and c0 = cpu_now () in
      let result =
        match traced_query w ~config inputs ~query with
        | value, counters -> Ok { answer = digest value; counters }
        | exception e -> Error (Printexc.to_string e)
      in
      let traced = { wall = now () -. t0; cpu = cpu_now () -. c0; result } in
      loop (query + 1) ((query, untraced, traced) :: acc)
    end
  in
  let rounds = loop 1 [] in
  let reference_ok = check_reference () in
  let samples = List.concat_map (fun (_, u, t) -> [ u; t ]) rounds in
  let attempted = List.length samples in
  let failed = count_failed ~reference_ok reference samples in
  let traced_ok =
    List.filter_map
      (fun (query, _, t) ->
        match t.result with Ok o -> Some (query, o) | Error _ -> None)
      rounds
  in
  (* medians over the traced queries, metric by metric *)
  let medians rows =
    match rows with
    | [] -> []
    | first :: _ ->
      List.mapi
        (fun i (name, _, unit) ->
          let v l = (fun (_, v, _) -> v) (List.nth l i) in
          (name, median (List.map v rows), unit))
        first
  in
  let layers =
    medians (List.map (fun (query, o) -> layers_of ~query o.counters) traced_ok)
  in
  let steps =
    medians
      (List.map
         (fun (query, _) ->
           List.map (fun (st, v) -> (st, v, "s")) (step_times w ~query))
         traced_ok)
  in
  let walls f = median (List.map (fun r -> (f r).wall) rounds) in
  let overhead = walls (fun (_, _, t) -> t) -. walls (fun (_, u, _) -> u) in
  Option.iter write_spans spans_file;
  Printf.printf "workload %s seed %d: %d untraced and %d traced queries\n"
    w.name seed (List.length rounds) (List.length rounds);
  List.iter
    (fun (st, v, _) -> Printf.printf "  step %-10s execute %.6f s\n" st v)
    steps;
  result_line ~correct:(failed = 0) ~attempted ~failed
    (layers @ [ ("trace.overhead_s", overhead, "s") ])

(* ------------------------------------------------------------------ *)
(* Pinned references *)

let pp_reference name (r : reference) =
  let c = r.counters in
  Printf.printf
    "    ( %S,\n\
    \      {\n\
    \        answer = { rows = %d; shape = %d; reals = %d; real_mass = %h };\n\
    \        counters =\n\
    \          {\n\
    \            Exec.Stats.zero with\n\
    \            shuffled_bytes = %d;\n\
    \            broadcast_bytes = %d;\n\
    \            peak_worker_bytes = %d;\n\
    \            rows_processed = %d;\n\
    \            stages = %d;\n\
    \            sim_seconds = %h;\n\
    \            task_retries = %d;\n\
    \            retried_tasks = %d;\n\
    \            speculative_tasks = %d;\n\
    \            recomputed_bytes = %d;\n\
    \            spilled_bytes = %d;\n\
    \            spill_partitions = %d;\n\
    \            spill_rounds = %d;\n\
    \            checkpoints_written = %d;\n\
    \            checkpoint_bytes = %d;\n\
    \            lineage_truncated = %d;\n\
    \            recovery_seconds = %h;\n\
    \          };\n\
    \      } );\n"
    name r.answer.rows r.answer.shape r.answer.reals r.answer.real_mass
    c.Exec.Stats.shuffled_bytes c.Exec.Stats.broadcast_bytes
    c.Exec.Stats.peak_worker_bytes c.Exec.Stats.rows_processed
    c.Exec.Stats.stages c.Exec.Stats.sim_seconds c.Exec.Stats.task_retries
    c.Exec.Stats.retried_tasks c.Exec.Stats.speculative_tasks
    c.Exec.Stats.recomputed_bytes c.Exec.Stats.spilled_bytes
    c.Exec.Stats.spill_partitions c.Exec.Stats.spill_rounds
    c.Exec.Stats.checkpoints_written c.Exec.Stats.checkpoint_bytes
    c.Exec.Stats.lineage_truncated c.Exec.Stats.recovery_seconds

(* Recompute every pin at the default seed: one [Api.run] for the
   counters, [Nrc.Eval] for the answer. Prints the pins as OCaml and
   fails unless each matches the table above. *)
let verify_pins () =
  let ok =
    List.fold_left
      (fun ok (w : workload) ->
        let seed = default_seed in
        let inputs = w.generate ~seed in
        let run, s = api_query w ~config:(w.config ~seed) inputs in
        let t0 = now () in
        let expected = Nrc.Program.eval_result w.program inputs in
        let eval_s = now () -. t0 in
        match s.result, run with
        | Ok obs, Ok { Api.value = Some value; _ } ->
          let eval_ok = V.approx_bag_equal expected value in
          let computed = { obs with answer = digest expected } in
          pp_reference w.name computed;
          let pin_ok =
            match List.assoc_opt w.name pins with
            | Some pin -> agrees pin computed && agrees pin obs
            | None -> false
          in
          Printf.printf
            "%s: query %.3fs, Nrc.Eval %.3fs, answer = Nrc.Eval: %b, pin \
             holds: %b\n%!"
            w.name s.wall eval_s eval_ok pin_ok;
          ok && eval_ok && pin_ok
        | Error msg, _ ->
          Printf.printf "%s: query failed: %s\n" w.name msg;
          false
        | Ok _, _ -> false)
      true workloads
  in
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref 0 and spans_file = ref None and pins_mode = ref false in
  let names = String.concat ", " (List.map (fun (w : workload) -> w.name) workloads) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ names);
      ("--seed", Arg.Set_int seed, "N input generator and fault-victim seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed loop runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or per-layer run");
      ( "--spans",
        Arg.String (fun f -> spans_file := Some f),
        "FILE where the per-layer run writes its spans" );
      ( "--verify-pins",
        Arg.Set pins_mode,
        " check the default seed's pinned references against Nrc.Eval" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !pins_mode then verify_pins ();
  match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
      names;
    exit 2
  | Some w when !trace = 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
  | Some w when !trace = 1 ->
    layered w ~seed:!seed ~seconds:!seconds ~spans_file:!spans_file
  | Some _ ->
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
