(** Cost estimation for compiled plans — the paper's stated future work
    ("a crucial issue, and a target of our ongoing work, is cost estimation
    for these programs, and the application of such estimates to
    optimization decisions", Section 8).

    The model is deliberately simple and documented: per-table statistics
    (cardinality, average row bytes, average inner-bag fanout per path) are
    collected from the actual inputs; cardinalities propagate through plan
    operators with textbook heuristics; operator costs combine CPU
    (rows in + out, weighted by bytes) and network (bytes shuffled or
    broadcast). Estimates for a whole program fold over its assignments,
    feeding each result's estimated statistics to later ones, so the
    standard and shredded routes can be compared before execution —
    {!recommend} picks a route. The bench target [cost_model] validates the
    ranking against the simulator's measured times. *)

module E = Nrc.Expr
module V = Nrc.Value
module Op = Plan.Op
module S = Plan.Sexpr

(* ------------------------------------------------------------------ *)
(* Statistics *)

type table_stats = {
  rows : float;
  row_bytes : float; (* average top-level row size *)
  fanouts : (string list * float) list; (* avg bag size per attribute path *)
}

type stats = (string * table_stats) list

let default_fanout = 4.

(* average inner-bag sizes of a bag of tuples, per path *)
let rec fanouts_of_items path (items : V.t list) : (string list * float) list =
  match items with
  | [] -> []
  | V.Tuple fields :: _ ->
    List.concat_map
      (fun (name, _) ->
        let bags =
          List.filter_map
            (fun item ->
              match item with
              | V.Tuple fs -> (
                match List.assoc_opt name fs with
                | Some (V.Bag inner) -> Some inner
                | _ -> None)
              | _ -> None)
            items
        in
        match bags with
        | [] -> []
        | _ ->
          let total = List.fold_left (fun a b -> a + List.length b) 0 bags in
          let avg = float_of_int total /. float_of_int (List.length bags) in
          let sub = path @ [ name ] in
          (sub, avg) :: fanouts_of_items sub (List.concat bags))
      fields
  | _ -> []

let stats_of_bag (v : V.t) : table_stats =
  let items = V.bag_items v in
  let n = List.length items in
  if n = 0 then { rows = 0.; row_bytes = 32.; fanouts = [] }
  else
    {
      rows = float_of_int n;
      row_bytes =
        float_of_int (List.fold_left (fun a x -> a + V.byte_size x) 0 items)
        /. float_of_int n;
      fanouts = fanouts_of_items [] items;
    }

let stats_of_inputs (inputs : (string * V.t) list) : stats =
  List.map (fun (name, v) -> (name, stats_of_bag v)) inputs

(* ------------------------------------------------------------------ *)
(* Plan estimation *)

type estimate = {
  out_rows : float;
  out_bytes : float; (* total *)
  cpu : float; (* bytes touched *)
  net : float; (* bytes shuffled or broadcast *)
}

let zero = { out_rows = 0.; out_bytes = 0.; cpu = 0.; net = 0. }

(* selectivity heuristics *)
let rec selectivity (p : S.t) =
  match p with
  | S.Cmp (E.Eq, _, _) -> 0.2
  | S.Cmp (E.Ne, _, _) -> 0.8
  | S.Cmp (_, _, _) -> 0.45
  | S.Logic (E.And, a, b) -> selectivity a *. selectivity b
  | S.Logic (E.Or, a, b) -> min 1. (selectivity a +. selectivity b)
  | S.Not a -> 1. -. selectivity a
  | S.IsNull _ -> 0.1
  | S.IsLabelSite _ -> 0.9
  | _ -> 0.5

(* group-count heuristic: a fraction of the input per distinct key column *)
let group_ratio n_keys = Float.pow 0.35 (float_of_int (max 1 n_keys))

let avg_row e = if e.out_rows <= 0. then 32. else e.out_bytes /. e.out_rows

(* foreign-key assumption: each left row matches its partners in the
   smaller side once on average *)
let join_estimate kind l r =
  let matched = max l.out_rows r.out_rows in
  let out_rows =
    match kind with Op.LeftOuter -> max matched l.out_rows | Op.Inner -> matched
  in
  let out_bytes = out_rows *. (avg_row l +. avg_row r) in
  {
    out_rows;
    out_bytes;
    cpu = l.cpu +. r.cpu +. out_bytes;
    net = l.net +. r.net +. l.out_bytes +. r.out_bytes (* both sides move *);
  }

(* grouping keeps all item bytes, nested *)
let nest_bag_estimate n_keys e =
  let out_rows = max 1. (e.out_rows *. group_ratio n_keys) in
  { out_rows; out_bytes = e.out_bytes; cpu = e.cpu +. e.out_bytes;
    net = e.net +. e.out_bytes }

(* Children first, then the operator over their estimates. A cogroup is
   estimated as the join+nest it fuses, so fusing moves no estimate. *)
let rec estimate (stats : stats) (op : Op.t) : estimate =
  match op, List.map (estimate stats) (Op.children op) with
  | Op.Nil _, [] -> zero
  | Op.UnitRow, [] -> { out_rows = 1.; out_bytes = 8.; cpu = 8.; net = 0. }
  | Op.Scan { input; _ }, [] -> (
    match List.assoc_opt input stats with
    | None -> { out_rows = 100.; out_bytes = 3200.; cpu = 3200.; net = 0. }
    | Some t ->
      let b = t.rows *. t.row_bytes in
      { out_rows = t.rows; out_bytes = b; cpu = b; net = 0. })
  | Op.Select (p, _), [ e ] ->
    let s = selectivity p in
    { e with
      out_rows = e.out_rows *. s;
      out_bytes = e.out_bytes *. s;
      cpu = e.cpu +. e.out_bytes }
  | Op.Project (fields, _), [ e ] ->
    (* projections mostly narrow; assume they keep 70% of the bytes per
       retained field list length vs input *)
    let keep = min 1. (0.25 *. float_of_int (List.length fields)) in
    { e with
      out_bytes = e.out_bytes *. keep;
      cpu = e.cpu +. e.out_bytes }
  | Op.Join { kind; _ }, [ l; r ] -> join_estimate kind l r
  | Op.Cogroup { kind; keys; _ }, [ l; r ] ->
    nest_bag_estimate (List.length keys) (join_estimate kind l r)
  | Op.Product _, [ l; r ] ->
    let out_rows = l.out_rows *. r.out_rows in
    let out_bytes = out_rows *. (avg_row l +. avg_row r) in
    { out_rows; out_bytes; cpu = l.cpu +. r.cpu +. out_bytes; net = l.net +. r.net +. r.out_bytes }
  | Op.Unnest { input; path; outer; _ }, [ e ] ->
    let fanout = fanout_of stats input path in
    let out_rows = e.out_rows *. if outer then max 1. fanout else fanout in
    let out_bytes = out_rows *. (avg_row e +. 24.) in
    { out_rows; out_bytes; cpu = e.cpu +. out_bytes; net = e.net }
  | Op.AddIndex _, [ e ] ->
    { e with out_bytes = e.out_bytes +. (8. *. e.out_rows); cpu = e.cpu +. e.out_bytes }
  | Op.NestBag { keys; agg_keys; _ }, [ e ] ->
    nest_bag_estimate (List.length keys + List.length agg_keys) e
  | Op.NestSum { keys; agg_keys; aggs; _ }, [ e ] ->
    let out_rows =
      max 1. (e.out_rows *. group_ratio (List.length keys + List.length agg_keys))
    in
    let out_bytes =
      out_rows
      *. (16. *. float_of_int (List.length keys + List.length agg_keys + List.length aggs))
    in
    (* map-side combine: only the combined partials shuffle *)
    { out_rows; out_bytes; cpu = e.cpu +. e.out_bytes; net = e.net +. out_bytes }
  | Op.Dedup _, [ e ] ->
    let out_rows = max 1. (e.out_rows *. 0.5) in
    { out_rows;
      out_bytes = out_rows *. avg_row e;
      cpu = e.cpu +. e.out_bytes;
      net = e.net +. e.out_bytes }
  | Op.UnionAll _, [ l; r ] ->
    {
      out_rows = l.out_rows +. r.out_rows;
      out_bytes = l.out_bytes +. r.out_bytes;
      cpu = l.cpu +. r.cpu;
      net = l.net +. r.net;
    }
  | Op.BagToDict _, [ e ] ->
    { e with net = e.net +. e.out_bytes; cpu = e.cpu +. e.out_bytes }
  | op, _ -> invalid_arg ("Cost.estimate: arity of " ^ Op.name op)

(* fanout of the bag at [path] under the given subplan: resolved against
   input statistics when the plan bottoms out in a scan binding the path's
   root column; otherwise the default *)
and fanout_of stats (input : Op.t) (path : string list) : float =
  match path with
  | root :: rest -> (
    match find_scan input root with
    | Some table -> (
      match List.assoc_opt table stats with
      | Some t -> (
        match List.assoc_opt rest t.fanouts with
        | Some f -> f
        | None -> default_fanout)
      | None -> default_fanout)
    | None -> default_fanout)
  | [] -> default_fanout

and find_scan (op : Op.t) (binder : string) : string option =
  match op with
  | Op.Scan { input; binder = b } when b = binder -> Some input
  | _ ->
    List.fold_left
      (fun acc c -> match acc with Some _ -> acc | None -> find_scan c binder)
      None (Op.children op)

(* ------------------------------------------------------------------ *)
(* Whole-route estimation *)

(* Estimate each plan of an assignment sequence in turn, threading each
   result's estimated statistics into the environment for later plans;
   [f] folds the per-plan estimates. *)
let fold_assignments f init (stats0 : stats) (plans : (string * Op.t) list) =
  List.fold_left
    (fun (acc, stats) (name, plan) ->
      let e = estimate stats plan in
      let table =
        { rows = max 1. e.out_rows; row_bytes = avg_row e; fanouts = [] }
      in
      (f acc e, (name, table) :: stats))
    (init, stats0) plans

(** Sum of operator costs over a sequence of assignments. The scalar
    objective mirrors the simulator's time model: cpu bytes (weighted) +
    network bytes. *)
let estimate_assignments (stats0 : stats) (plans : (string * Op.t) list) :
    float * stats =
  fold_assignments (fun acc e -> acc +. e.cpu +. (4. *. e.net)) 0. stats0 plans

type recommendation = {
  standard_cost : float;
  shredded_cost : float;
  pick : [ `Standard | `Shredded ];
}

(* ------------------------------------------------------------------ *)
(* Checkpoint interval estimation (Young-Daly under the simulator's cost
   model). With a per-stage fault probability [fault_rate], a fault at
   stage i replays the ~k/2 stages of lineage accrued since the last
   checkpoint, so per stage the expected recompute cost is
   [rate * k/2 * stage_bytes * cpu_weight] while the amortized write cost
   is [stage_bytes * disk_weight * replication / k]. Balancing the two
   gives k = sqrt(2 * delta / (rate * stage_time)) with delta the write
   time of one checkpoint — Young's classic first-order optimum. *)

type checkpoint_estimate = {
  avg_stage_bytes : float;  (* estimated bytes a pipeline stage produces *)
  interval : int;  (* recommended [Config.Every] interval, >= 1 *)
  write_seconds : float;  (* estimated cost of one checkpoint write *)
  expected_recompute_seconds : float;
      (* expected per-stage recompute cost at that interval *)
}

let recommend_checkpoint_interval (cluster : Exec.Config.t)
    (stats0 : stats) (plans : (string * Op.t) list) : checkpoint_estimate =
  let total_bytes, _ =
    fold_assignments (fun bytes e -> bytes +. e.out_bytes) 0. stats0 plans
  in
  let avg_stage_bytes =
    total_bytes /. float_of_int (max 1 (List.length plans))
  in
  let stage_seconds = avg_stage_bytes *. cluster.Exec.Config.cpu_weight in
  let delta =
    avg_stage_bytes *. cluster.Exec.Config.disk_weight
    *. float_of_int (max 1 cluster.Exec.Config.checkpoint_replication)
  in
  let rate = max 1e-9 cluster.Exec.Config.fault_rate in
  let k =
    if stage_seconds <= 0. then 1
    else
      int_of_float (Float.round (sqrt (2. *. delta /. (rate *. stage_seconds))))
  in
  let interval = max 1 k in
  {
    avg_stage_bytes;
    interval;
    write_seconds = delta;
    expected_recompute_seconds =
      rate *. (float_of_int interval /. 2.) *. stage_seconds;
  }

(** Estimate both compilation routes of a program on the given inputs and
    recommend the cheaper one. The shredded estimate includes the
    materialized assignments (and the unshredding plan when the output is
    nested and [unshred] is requested). *)
let recommend ?(config = Api.default_config) ?(unshred = false)
    (p : Nrc.Program.t) (inputs : (string * V.t) list) : recommendation =
  let base_stats = stats_of_inputs inputs in
  let std_plans = Api.compile_standard ~config p in
  let standard_cost, _ = estimate_assignments base_stats std_plans in
  let sc = Api.compile_shredded ~config p in
  let shredded_inputs =
    Shred_value.shred_env p.Nrc.Program.inputs inputs
  in
  let shred_stats = stats_of_inputs shredded_inputs in
  let shredded_cost, stats' =
    estimate_assignments shred_stats sc.Api.plans
  in
  let shredded_cost =
    match unshred, sc.Api.unshred_plan with
    | true, Some uplan ->
      let e = estimate stats' uplan in
      shredded_cost +. e.cpu +. (4. *. e.net)
    | _ -> shredded_cost
  in
  {
    standard_cost;
    shredded_cost;
    pick = (if shredded_cost <= standard_cost then `Shredded else `Standard);
  }

(** Cost-based execution: estimate both routes, run the cheaper one (the
    "application of such estimates to optimization decisions" the paper
    names as ongoing work). The chosen route is visible in the returned
    run's [strategy]. *)
let run_auto ?(config = Api.default_config) ?(unshred = true)
    (p : Nrc.Program.t) (inputs : (string * V.t) list) : recommendation * Api.run =
  let r = recommend ~config ~unshred p inputs in
  let strategy =
    match r.pick with
    | `Standard -> Api.Standard
    | `Shredded -> Api.Shredded { unshred }
  in
  (r, Api.run ~config ~strategy p inputs)
