(** Span-tree execution tracing; see trace.mli for the model. *)

type join_strategy =
  | Broadcast
  | Shuffle
  | Guarantee_skipped
  | Skew_split of { heavy_keys : int }

let strategy_name = function
  | Broadcast -> "broadcast"
  | Shuffle -> "shuffle"
  | Guarantee_skipped -> "guarantee-skipped"
  | Skew_split { heavy_keys } -> Printf.sprintf "skew-split(%d)" heavy_keys

(* The shared counters plus the span-only partition-load fields. *)
type metrics = {
  counters : Stats.snapshot;
  rows_in : int;
  max_partition_bytes : int;
  sum_partition_bytes : int;
  partitions : int;
}

let zero_metrics =
  {
    counters = Stats.zero;
    rows_in = 0;
    max_partition_bytes = 0;
    sum_partition_bytes = 0;
    partitions = 0;
  }

let merge_metrics a b =
  {
    counters = Stats.merge a.counters b.counters;
    rows_in = a.rows_in + b.rows_in;
    max_partition_bytes = max a.max_partition_bytes b.max_partition_bytes;
    sum_partition_bytes = a.sum_partition_bytes + b.sum_partition_bytes;
    partitions = a.partitions + b.partitions;
  }

let mean_partition_bytes m =
  if m.partitions = 0 then 0.
  else float_of_int m.sum_partition_bytes /. float_of_int m.partitions

(* the paper's load-imbalance factor; 1.0 when no partitions were
   observed *)
let load_imbalance m =
  let mean = mean_partition_bytes m in
  if mean <= 0. then 1. else float_of_int m.max_partition_bytes /. mean

type span = {
  id : int;
  op : string;
  stage : string;
  strategy : join_strategy option;
  metrics : metrics;
  children : span list;
}

let rec total sp =
  List.fold_left
    (fun acc c -> merge_metrics acc (total c))
    sp.metrics sp.children

let agg spans =
  List.fold_left (fun acc sp -> merge_metrics acc (total sp)) zero_metrics spans

(* The tree sums the float counters in tree order, the total in charge
   order: those agree to rounding, every other counter exactly. *)
let agrees spans (s : Stats.snapshot) =
  let t = (agg spans).counters in
  let exact (c : Stats.snapshot) =
    { c with sim_seconds = 0.; recovery_seconds = 0.; wall_seconds = 0. }
  in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a) in
  exact t = exact s
  && close t.sim_seconds s.sim_seconds
  && close t.recovery_seconds s.recovery_seconds
  && close t.wall_seconds s.wall_seconds

let find_all pred spans =
  let rec go acc sp =
    let acc = if pred sp then sp :: acc else acc in
    List.fold_left go acc sp.children
  in
  List.rev (List.fold_left go [] spans)

(* ------------------------------------------------------------------ *)
(* Recording *)

(* An open span; it is frozen into a [span] when it closes, so its
   children are already spans. *)
type node = {
  nid : int;
  nop : string;
  mutable nstage : string;
  mutable nstrategy : join_strategy option;
  mutable nm : metrics;
  mutable nchildren : span list; (* closed, reversed *)
}

type ctx = {
  mutable stack : node list; (* innermost first *)
  mutable croots : span list; (* reversed *)
  mutable next_id : int;
}

let create () = { stack = []; croots = []; next_id = 0 }
let roots ctx = List.rev ctx.croots
let last_root ctx = match ctx.croots with [] -> None | sp :: _ -> Some sp

let with_span octx ~op ?(stage = "") f =
  match octx with
  | None -> f ()
  | Some ctx ->
    let n =
      {
        nid = ctx.next_id;
        nop = op;
        nstage = stage;
        nstrategy = None;
        nm = zero_metrics;
        nchildren = [];
      }
    in
    ctx.next_id <- ctx.next_id + 1;
    ctx.stack <- n :: ctx.stack;
    Fun.protect
      ~finally:(fun () ->
        (match ctx.stack with
        | top :: rest when top == n -> ctx.stack <- rest
        | _ -> ());
        let sp =
          { id = n.nid; op = n.nop; stage = n.nstage; strategy = n.nstrategy;
            metrics = n.nm; children = List.rev n.nchildren }
        in
        match ctx.stack with
        | parent :: _ -> parent.nchildren <- sp :: parent.nchildren
        | [] -> ctx.croots <- sp :: ctx.croots)
      f

let on_top octx f =
  match octx with
  | None -> ()
  | Some ctx -> ( match ctx.stack with [] -> () | n :: _ -> f n)

let set_stage octx stage =
  on_top octx (fun n -> if n.nstage = "" then n.nstage <- stage)

let set_strategy octx s =
  on_top octx (fun n ->
      match n.nstrategy with None -> n.nstrategy <- Some s | Some _ -> ())

(* The one charge path for counters: the run total first, then the span,
   so tracing can never perturb the total's summation order. *)
let charge octx stats d =
  Stats.charge stats d;
  on_top octx (fun n ->
      n.nm <- { n.nm with counters = Stats.merge n.nm.counters d })

(* The span-only fields: they never reach the run total. *)
let add_rows_in octx rows =
  on_top octx (fun n -> n.nm <- { n.nm with rows_in = n.nm.rows_in + rows })

let observe_partitions octx (bytes : int array) =
  on_top octx (fun n ->
      n.nm <-
        {
          n.nm with
          max_partition_bytes =
            Array.fold_left max n.nm.max_partition_bytes bytes;
          sum_partition_bytes =
            Array.fold_left ( + ) n.nm.sum_partition_bytes bytes;
          partitions = n.nm.partitions + Array.length bytes;
        })

let group ~op ~stage children =
  { id = -1; op; stage; strategy = None; metrics = zero_metrics; children }

(* Wall-clock is the one non-deterministic quantity a span carries:
   equivalence campaigns strip it before comparing trees structurally. *)
let rec without_wall sp =
  {
    sp with
    metrics =
      { sp.metrics with counters = Stats.strip_wall sp.metrics.counters };
    children = List.map without_wall sp.children;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_bytes ppf b =
  if b >= 1048576 then Fmt.pf ppf "%.2fMB" (float_of_int b /. 1048576.)
  else if b >= 1024 then Fmt.pf ppf "%.1fKB" (float_of_int b /. 1024.)
  else Fmt.pf ppf "%dB" b

let pp_metrics ppf m =
  let c = m.counters in
  Fmt.pf ppf "shuffle=%a bcast=%a rows=%d/%d peak=%a imbal=%.1f sim=%.4fs"
    pp_bytes c.shuffled_bytes pp_bytes c.broadcast_bytes m.rows_in
    c.rows_processed pp_bytes c.peak_worker_bytes (load_imbalance m)
    c.sim_seconds;
  if c.task_retries > 0 || c.speculative_tasks > 0 || c.recomputed_bytes > 0
  then
    Fmt.pf ppf " retries=%d spec=%d recomp=%a" c.task_retries
      c.speculative_tasks pp_bytes c.recomputed_bytes;
  if c.spilled_bytes > 0 || c.spill_rounds > 0 then
    Fmt.pf ppf " spilled=%a spill_parts=%d spill_rounds=%d" pp_bytes
      c.spilled_bytes c.spill_partitions c.spill_rounds;
  if c.checkpoints_written > 0 || c.recovery_seconds > 0. then
    Fmt.pf ppf " ckpts=%d ckpt=%a trunc=%a recovery=%.4fs"
      c.checkpoints_written pp_bytes c.checkpoint_bytes pp_bytes
      c.lineage_truncated c.recovery_seconds;
  if c.wall_seconds > 0. then Fmt.pf ppf " wall=%.4fs" c.wall_seconds

let pp_tree ppf sp =
  let rec go indent sp =
    let t = total sp in
    Fmt.pf ppf "%s%s%s%s  [%a]@." indent sp.op
      (if sp.stage = "" then "" else Printf.sprintf " (%s)" sp.stage)
      (match sp.strategy with
      | None -> ""
      | Some s -> Printf.sprintf " <%s>" (strategy_name s))
      pp_metrics t;
    List.iter (go (indent ^ "  ")) sp.children
  in
  go "" sp

(* [rows_out] repeats [rows_processed] under the span schema's name *)
let metrics_json m =
  Json.Obj
    (Stats.json_fields m.counters
    @ [ ("rows_in", Int m.rows_in); ("rows_out", Int m.counters.rows_processed);
        ("max_partition_bytes", Int m.max_partition_bytes);
        ("mean_partition_bytes", Float (mean_partition_bytes m));
        ("load_imbalance", Float (load_imbalance m)) ])

let rec json sp =
  Json.Obj
    [ ("id", Int sp.id); ("op", String sp.op); ("stage", String sp.stage);
      ("strategy", match sp.strategy with None -> Null | Some s -> String (strategy_name s));
      ("metrics", metrics_json sp.metrics); ("total", metrics_json (total sp));
      ("children", List (List.map json sp.children)) ]
