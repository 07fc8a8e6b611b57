(** Cluster-simulator configuration.

    The paper's testbed is a 5-worker Spark cluster with 25 executors, 1000
    shuffle partitions, 64 GB per executor, a 10 MB auto-broadcast limit and
    a 2.5% per-partition heavy-key sampling threshold (Sections 5-6). The
    simulator preserves the *ratios* at laptop scale; [worker_mem] is the
    lever that turns the paper's memory-saturation failures into
    {!Failure.Out_of_memory}. *)

type spill = Off | On

type checkpoint = No_checkpoints | Every of int | Auto

type t = {
  workers : int; (* worker nodes; partitions are assigned round-robin *)
  partitions : int; (* shuffle partitions *)
  worker_mem : int; (* byte budget per worker per stage *)
  broadcast_limit : int; (* auto-broadcast threshold, bytes (Spark: 10MB) *)
  sample_per_partition : int; (* tuples sampled per partition for skew *)
  heavy_threshold : float; (* fraction of a partition's sample (paper: 2.5%) *)
  cpu_weight : float; (* simulated seconds per processed byte *)
  net_weight : float; (* simulated seconds per byte received by one node *)
  seed : int;
  max_task_attempts : int; (* attempt budget per task, Spark's spark.task.maxFailures *)
  speculation : bool; (* launch speculative duplicates for stragglers *)
  spill : spill; (* Off reproduces the paper's FAIL bars; On spills to disk *)
  max_spill_rounds : int; (* build passes before a stage gives up (then OOM) *)
  disk_weight : float; (* simulated seconds per byte written to or read from disk *)
  checkpoint : checkpoint; (* stage-boundary materialization policy *)
  checkpoint_replication : int; (* copies written per checkpoint (HDFS: 3) *)
  fault_rate : float; (* expected faults per stage, drives Auto placement *)
  deadline : float option; (* simulated-seconds budget for the whole run *)
  domains : int; (* OCaml domains running partition tasks (1 = sequential) *)
}

let spill_of_string = function
  | "on" | "true" | "1" -> Ok On
  | "off" | "false" | "0" -> Ok Off
  | s -> Error (Printf.sprintf "unknown spill mode %S (expected on|off)" s)

let spill_name = function Off -> "off" | On -> "on"

let checkpoint_of_string s =
  match s with
  | "off" | "none" | "no" -> Ok No_checkpoints
  | "auto" -> Ok Auto
  | _ -> (
    match String.split_on_char '=' s with
    | [ "every"; v ] -> (
      match int_of_string_opt v with
      | Some k when k >= 1 -> Ok (Every k)
      | _ -> Error (Printf.sprintf "bad checkpoint interval %S" v))
    | _ ->
      Error
        (Printf.sprintf "unknown checkpoint policy %S (expected off, every=K, auto)"
           s))

let checkpoint_name = function
  | No_checkpoints -> "off"
  | Every k -> Printf.sprintf "every=%d" k
  | Auto -> "auto"

(* [worker_mem] is -1 for an unbounded budget: max_int is not a useful
   JSON number *)
let json_fields t : (string * Json.t) list =
  [ ("workers", Int t.workers); ("partitions", Int t.partitions);
    ("worker_mem", Int (if t.worker_mem = max_int then -1 else t.worker_mem));
    ("broadcast_limit", Int t.broadcast_limit); ("seed", Int t.seed);
    ("max_task_attempts", Int t.max_task_attempts); ("speculation", Bool t.speculation);
    ("spill", String (spill_name t.spill)); ("max_spill_rounds", Int t.max_spill_rounds);
    ("checkpoint", String (checkpoint_name t.checkpoint));
    ("checkpoint_replication", Int t.checkpoint_replication);
    ("fault_rate", Float t.fault_rate);
    ("deadline", match t.deadline with None -> Null | Some d -> Float d);
    ("domains", Int t.domains) ]

let validate t =
  let at_least_one name v =
    if v >= 1 then None
    else Some (Printf.sprintf "%s must be >= 1 (got %d)" name v)
  in
  let weight name w =
    if Float.is_finite w && w >= 0. then None
    else Some (Printf.sprintf "%s must be finite and >= 0 (got %g)" name w)
  in
  let problems =
    [
      at_least_one "workers" t.workers;
      at_least_one "partitions" t.partitions;
      at_least_one "domains" t.domains;
      at_least_one "max_task_attempts" t.max_task_attempts;
      at_least_one "sample_per_partition" t.sample_per_partition;
      weight "cpu_weight" t.cpu_weight;
      weight "net_weight" t.net_weight;
      weight "disk_weight" t.disk_weight;
      weight "fault_rate" t.fault_rate;
      (if Float.is_finite t.heavy_threshold && t.heavy_threshold >= 0. && t.heavy_threshold <= 1.
       then None
       else
         Some (Printf.sprintf "heavy_threshold must be finite and in [0, 1] (got %g)" t.heavy_threshold));
      (match t.deadline with
      | Some d when not (d > 0.) ->
        Some (Printf.sprintf "deadline must be > 0 (got %g)" d)
      | _ -> None);
      (match t.checkpoint with Every k -> at_least_one "checkpoint every=K" k | _ -> None);
      at_least_one "checkpoint_replication" t.checkpoint_replication;
      (if t.spill = On then at_least_one "max_spill_rounds" t.max_spill_rounds else None);
    ]
  in
  match List.filter_map Fun.id problems with
  | [] -> Ok t
  | ps -> Error ("invalid configuration: " ^ String.concat "; " ps)

(* CI's memory-pressure matrix sweeps the *default* budget and spill mode
   through the environment so the tier-1 suite runs unchanged under each
   cell; tests that pin [worker_mem] or [spill] explicitly are unaffected.
   A set variable must parse: a malformed value is an error naming the
   variable and the accepted form, never silently ignored. An empty value
   counts as unset. *)
let with_env getenv t =
  let var name accepted parse set t =
    Result.bind t (fun t ->
        match getenv name with
        | None | Some "" -> Ok t
        | Some s -> (
          match parse s with
          | Some v -> Ok (set t v)
          | None ->
            Error (Printf.sprintf "%s=%S: expected %s" name s accepted)))
  in
  Ok t
  |> var "TRANCE_DOMAINS" "a domain count >= 1"
       (fun s ->
         match int_of_string_opt s with
         | Some n when n >= 1 -> Some n
         | _ -> None)
       (fun t domains -> { t with domains })
  |> var "TRANCE_WORKER_MEM" "a positive number of MB, or unbounded"
       (function
         | "unbounded" -> Some max_int
         | s -> (
           match float_of_string_opt s with
           | Some mb when mb > 0. && Float.is_finite mb ->
             Some (int_of_float (Float.min (mb *. 1048576.) 4e18))
           | _ -> None))
       (fun t worker_mem -> { t with worker_mem })
  |> var "TRANCE_SPILL" "on or off"
       (fun s -> Result.to_option (spill_of_string s))
       (fun t spill -> { t with spill })
  |> var "TRANCE_CHECKPOINT" "off, every=K with K >= 1, or auto"
       (fun s -> Result.to_option (checkpoint_of_string s))
       (fun t checkpoint -> { t with checkpoint })

let base =
  {
    workers = 5;
    partitions = 40;
    worker_mem = 64 * 1024 * 1024;
    broadcast_limit = 256 * 1024;
    sample_per_partition = 40;
    heavy_threshold = 0.025;
    cpu_weight = 1e-8;
    net_weight = 4e-8;
    seed = 42;
    max_task_attempts = 4;
    speculation = true;
    spill = Off;
    max_spill_rounds = 256;
    disk_weight = 2e-8;
    checkpoint = No_checkpoints;
    checkpoint_replication = 3;
    fault_rate = 0.05;
    deadline = None;
    domains = 1;
  }

let default =
  match with_env Sys.getenv_opt base with Ok t -> t | Error msg -> failwith msg

(** A configuration that never fails on memory: used by tests that check
    semantics only. *)
let unbounded = { default with worker_mem = max_int }

let worker_of_partition t p = p mod t.workers
