(** The distributed plan executor: evaluates plans over partitioned datasets
    the way a Spark cluster would, with instrumentation.

    Faithfulness notes (per DESIGN.md substitution table):

    - datasets are partitioned arrays; operators run partition-wise, each
      pool task calling the operator's {!Plan.Kernel} — the row code
      {!Plan.Local_eval} runs as one partition — so this module holds only
      the distribution: shuffles, broadcasts, guarantees, skew splits;
    - joins pick between broadcast (small right side, like Spark's
      auto-broadcast) and shuffle hash join, honouring existing partitioning
      guarantees to skip shuffles;
    - nest operators shuffle by their grouping key first;
    - a cogroup ({!Plan.Op.Cogroup}, the join+nest fusion of Section 3 that
      {!Plan.Optimize.cogroup} introduces) runs as one broadcast or shuffle
      stage over both sides, without the flattened intermediate;
    - skew-aware mode implements Figure 6: per-partition sampling determines
      heavy keys; the light part follows the standard implementation while
      the heavy part keeps its location and receives broadcast partners;
    - every operator is accounted: bytes shuffled and broadcast, per-worker
      resident bytes reserved through the {!Memory} manager — which either
      fits the stage, spills its declared build side to simulated disk
      ({!Config.t.spill} [= On]), or denies the reservation (failing with
      {!Failure.Out_of_memory}, the paper's FAIL entries) — and a
      simulated time accumulating per-stage maxima over partitions, which is
      where load imbalance shows.

    Each accounted quantity is one {!charge} of a {!Stats.snapshot} delta,
    which feeds both the run total and — when a {!Trace.ctx} is supplied —
    the innermost open span of the per-operator span tree {!Trace}
    documents. *)

module V = Nrc.Value
module S = Plan.Sexpr
module Op = Plan.Op
module Row = Plan.Row
module K = Plan.Kernel

type options = {
  skew_aware : bool;
  cogroup : bool; (* unread: fusion is the plan rewrite Optimize.cogroup *)
}

let default_options = { skew_aware = false; cogroup = true }

type env = (string, Dataset.t) Hashtbl.t

let env_of_list l : env =
  let h = Hashtbl.create 16 in
  List.iter (fun (n, d) -> Hashtbl.replace h n d) l;
  h

type state = {
  cfg : Config.t;
  opts : options;
  stats : Stats.t;
  trace : Trace.ctx option;
  faults : Faults.t option;
  ckpt : Checkpoint.t;
  mem : Memory.t;
  env : env;
  pool : Pool.t; (* partition tasks run here; accounting stays outside *)
}

let all_some l = if List.for_all Option.is_some l then Some (List.map Option.get l) else None

(* [n] partitions, all empty but the first *)
let first_only n (first : K.sized) = Array.init n (fun p -> if p = 0 then first else ([||], [||]))

(* Partition-wise evaluation goes through the pool. The task closures must
   not touch [st.stats]/[st.trace]/[st.mem]/[st.faults]: every hot loop
   below computes a pure per-partition result — its rows and their sizes
   (for the shuffle, the bytes sent to each destination) — and all shared
   accounting happens on the calling domain after the barrier, reading the
   carried sizes. The sizes are pure integer functions of the partitions,
   summed in partition order, so a [domains = N] run stays bit-identical
   to [domains = 1], and no row is walked for sizing outside a kernel. *)
let pool_parts st (f : int -> K.sized -> K.sized) (r : Dataset.t) =
  Pool.map st.pool (fun p part -> f p (part, r.sizes.(p))) r.parts

(* a partition with its sizes *)
let part (r : Dataset.t) p : K.sized = (r.parts.(p), r.sizes.(p))

(* every partition in one, as gathered or broadcast *)
let concat (r : Dataset.t) : K.sized =
  (Array.concat (Array.to_list r.parts), Array.concat (Array.to_list r.sizes))

(* ------------------------------------------------------------------ *)
(* Accounting *)

let trace_rows_in st inputs =
  if st.trace <> None then
    Trace.add_rows_in st.trace
      (List.fold_left (fun acc r -> acc + Dataset.total_rows r) 0 inputs)

(* The one accounting entry point: a counter delta lands in the run total
   and in the innermost span. *)
let charge st d = Trace.charge st.trace st.stats d

(* Recovery cost: the extra simulated time is also booked as
   [recovery_seconds], the slice of [sim_seconds] a deadline-bound run is
   paying for faults. *)
let charge_recovery st ?(retries = 0) ?(retried = 0) ?(speculative = 0)
    ?(recomputed = 0) ?(dt = 0.) () =
  charge st
    {
      Stats.zero with
      task_retries = retries;
      retried_tasks = retried;
      speculative_tasks = speculative;
      recomputed_bytes = recomputed;
      sim_seconds = dt;
      recovery_seconds = dt;
    }

(* Deadlines are enforced at accounted stage boundaries: a run paying for
   recovery can overshoot within a stage, but it can never silently start
   another one — the typed breach is raised before more work is charged,
   so recompute loops are bounded by construction. *)
let check_deadline st ~stage =
  let sim_seconds = (Stats.snapshot st.stats).Stats.sim_seconds in
  match st.cfg.Config.deadline with
  | Some deadline when sim_seconds > deadline ->
    raise
      (Failure.Failed
         (Failure.Deadline_missed { stage; sim_seconds; deadline }))
  | _ -> ()

(* Charge one checkpoint write: the io time is paid by the stage. *)
let charge_checkpoint st (w : Checkpoint.write) =
  charge st
    {
      Stats.zero with
      checkpoints_written = 1;
      checkpoint_bytes = w.Checkpoint.ckpt_bytes;
      lineage_truncated = w.Checkpoint.truncated;
      sim_seconds = w.Checkpoint.io_seconds;
    }

(* What a stage's operator can stage out to disk when the manager denies
   full residency — its "build side". Everything else must stay resident.
   [Spill_all] models streaming operators (and shuffle receipts) whose
   whole working set can page through disk chunk-wise; [Spill_pinned] is a
   broadcast replica (external broadcast join); [Spill_parts] is a hash
   table built over the given per-partition inputs (external hash join,
   external cogroup, external group-by/dedup). *)
type spill_side =
  | Spill_all
  | Spill_pinned
  | Spill_parts of int array list

let worker_totals cfg ?(base = 0) (arrs : int array list) : int array =
  let worker = Array.make cfg.Config.workers base in
  List.iter
    (Array.iteri (fun p b ->
         let w = Config.worker_of_partition cfg p in
         worker.(w) <- worker.(w) + b))
    arrs;
  worker

(* Reserve one stage's residency through the memory manager and charge
   whatever it decides: a fitting stage just records its peak, a spilling
   stage additionally pays the spill counters and disk time, and a denied
   one records the offending residency and fails typed. *)
let check_residency st ~stage ~(worker : int array) ~(spillable : int array) :
    unit =
  match Memory.reserve st.mem ~worker ~spillable with
  | Memory.Fit { peak } ->
    charge st { Stats.zero with peak_worker_bytes = peak }
  | Memory.Spill { spilled_bytes; spill_partitions; rounds; peak; io_seconds }
    ->
    charge st
      {
        Stats.zero with
        peak_worker_bytes = peak;
        spilled_bytes;
        spill_partitions;
        spill_rounds = rounds;
        sim_seconds = io_seconds;
      }
  | Memory.Denied { worker_bytes; budget } ->
    charge st { Stats.zero with peak_worker_bytes = worker_bytes };
    raise
      (Failure.Failed (Failure.Out_of_memory { stage; worker_bytes; budget }))

(* Charge one stage: per-worker residency reservation + simulated cpu time.
   Broadcast copies resident on every worker are accounted through the
   manager's pin ledger ({!Memory.pin}) by the broadcasting operator.
   This is also a compute-site stage for the fault injector: an injected
   event is recovered here with Spark's semantics — bounded per-task retry,
   lineage re-execution of a lost worker's partitions, speculative
   duplicates for stragglers — and its cost (extra attempts, recomputed
   bytes, extra simulated time) is charged on top of the clean stage. *)
let account st ~stage ?(spill = Spill_all) (input_bytes : int array list)
    (output : Dataset.t) : unit =
  let cfg = st.cfg in
  let out_bytes = output.bytes in
  let nparts = Array.length out_bytes in
  let worker =
    worker_totals cfg ~base:(Memory.pinned st.mem) (out_bytes :: input_bytes)
  in
  Trace.observe_partitions st.trace out_bytes;
  (* advance the injector before reserving, so a Mem_squeeze that starts at
     this stage already constrains it *)
  let event =
    Faults.on_stage st.faults ~site:Faults.Compute ~partitions:nparts
      ~workers:cfg.Config.workers
  in
  let spillable =
    match spill with
    | Spill_all -> Array.copy worker
    | Spill_pinned -> Array.make cfg.Config.workers (Memory.pinned st.mem)
    | Spill_parts arrs -> worker_totals cfg arrs
  in
  check_residency st ~stage ~worker ~spillable;
  (* per-partition task cost: a task reads its input slices and writes its
     output slice; the slowest task bounds the stage *)
  let task_cost p =
    out_bytes.(p)
    + List.fold_left
        (fun acc arr -> acc + (if p < Array.length arr then arr.(p) else 0))
        0 input_bytes
  in
  let max_part = ref 0 in
  for p = 0 to nparts - 1 do
    let b = task_cost p in
    if b > !max_part then max_part := b
  done;
  let dt = float_of_int !max_part *. cfg.Config.cpu_weight in
  let rows = Dataset.total_rows output in
  charge st { Stats.zero with rows_processed = rows; sim_seconds = dt };
  (match event with
  | None -> ()
  | Some (Faults.Fail_task { partition; fails }) ->
    let b = task_cost partition in
    let t = float_of_int b *. cfg.Config.cpu_weight in
    if fails >= cfg.Config.max_task_attempts then begin
      (* every attempt fails: charge the wasted retries, then give up *)
      let wasted = cfg.Config.max_task_attempts - 1 in
      charge_recovery st ~retries:wasted ~retried:1 ~recomputed:(wasted * b)
        ~dt:(float_of_int wasted *. t) ();
      raise
        (Failure.Failed
           (Failure.Task_failed
              { stage; partition; attempts = cfg.Config.max_task_attempts }))
    end
    else
      charge_recovery st ~retries:fails ~retried:1 ~recomputed:(fails * b)
        ~dt:(float_of_int fails *. t) ()
  | Some (Faults.Lose_worker { worker = w }) ->
    (* lineage re-execution: every partition resident on the dead worker is
       recomputed on the survivors, together with the upstream lineage those
       partitions depend on — everything since the last checkpoint
       ({!Checkpoint.replay_bytes}; the whole run when there is none). The
       stage's own lost tasks run in parallel (slowest bounds the time);
       the upstream replay is spread over the surviving workers. *)
    let lost = ref 0 and bytes = ref 0 and slowest = ref 0 in
    for p = 0 to nparts - 1 do
      if Config.worker_of_partition cfg p = w then begin
        incr lost;
        let b = task_cost p in
        bytes := !bytes + b;
        if b > !slowest then slowest := b
      end
    done;
    let replay = Checkpoint.replay_bytes st.ckpt ~lost:!lost ~parts:nparts in
    let survivors = max 1 (cfg.Config.workers - 1) in
    let replay_dt =
      float_of_int replay *. cfg.Config.cpu_weight /. float_of_int survivors
    in
    charge_recovery st ~retries:!lost ~retried:!lost
      ~recomputed:(!bytes + replay)
      ~dt:((float_of_int !slowest *. cfg.Config.cpu_weight) +. replay_dt)
      ()
  | Some (Faults.Straggle { partition; multiplier }) ->
    let b = task_cost partition in
    let t = float_of_int b *. cfg.Config.cpu_weight in
    if cfg.Config.speculation then
      (* a duplicate launches once the straggler is noticed (after ~1x the
         normal task time) and runs at full speed: first copy wins, so the
         task finishes around 2x instead of [multiplier]x *)
      charge_recovery st ~speculative:1 ~recomputed:b
        ~dt:((Float.min multiplier 2. -. 1.) *. t) ()
    else charge_recovery st ~dt:((multiplier -. 1.) *. t) ()
  | Some (Faults.Fail_fetch _) -> () (* only injected at shuffle sites *));
  (* the stage boundary proper: the finished output joins the recovery
     lineage, and the policy may materialize it, truncating that lineage *)
  let total_out = Array.fold_left ( + ) 0 out_bytes in
  (match Checkpoint.on_stage st.ckpt ~out_bytes:total_out with
  | Some w -> charge_checkpoint st w
  | None -> ());
  check_deadline st ~stage

(* ------------------------------------------------------------------ *)
(* Shuffling *)

(* Redistribute rows by key hash; counts shuffle bytes and simulated network
   time (bounded by the most-loaded receiving partition — the skew
   bottleneck). Emits its own trace span, so operators that avoid shuffling
   (broadcast joins, guarantee-skipped joins) visibly have none. Given
   [hashes], each row's [Kernel.hash_key] of [keys] partition by partition,
   it reads destinations from them instead of hashing the keys, and moves
   them with their rows. *)
let shuffle_carrying st ?(stage = "shuffle") ?hashes (r : Dataset.t) (keys : S.t list) :
    Dataset.t * int array array option =
  Trace.with_span st.trace ~op:"Shuffle" ~stage (fun () ->
      let cfg = st.cfg in
      let n = cfg.Config.partitions in
      (* each task sorts the rows of one *input* partition by destination,
         stably: [order] lists its row positions destination by
         destination, the run of destination [q] starting at [start.(q)].
         The merge below reads the runs in input partition order, which
         reproduces the sequential row order exactly. Each task also
         returns the bytes it sends to each destination, read from the
         carried row sizes; their sums in task order are the receipts, and
         all receipts together are the bytes moved. *)
      let hash = K.key_hasher keys r.names in
      let tasks =
        Pool.map st.pool
          (fun p part ->
            let sizes = r.sizes.(p) in
            let hs = match hashes with Some h -> h.(p) | None -> Array.map hash part in
            let start = Array.make (n + 1) 0 and sent = Array.make n 0 in
            Array.iteri
              (fun i h ->
                let q = h mod n in
                start.(q + 1) <- start.(q + 1) + 1;
                sent.(q) <- sent.(q) + sizes.(i))
              hs;
            for q = 1 to n do
              start.(q) <- start.(q) + start.(q - 1)
            done;
            let next = Array.sub start 0 n and order = Array.make (Array.length part) 0 in
            Array.iteri
              (fun i h ->
                let q = h mod n in
                order.(next.(q)) <- i;
                next.(q) <- next.(q) + 1)
              hs;
            (order, start, sent))
          r.parts
      in
      let received = Array.make n 0 in
      Array.iter
        (fun (_, _, sent) ->
          Array.iteri (fun q b -> received.(q) <- received.(q) + b) sent)
        tasks;
      let moved = Array.fold_left ( + ) 0 received in
      (* one merge task per destination, reading every task's run *)
      let dest =
        Pool.map st.pool
          (fun q _ ->
            let len =
              Array.fold_left (fun acc (_, start, _) -> acc + start.(q + 1) - start.(q)) 0 tasks
            in
            let rows = Array.make len Row.empty and sizes = Array.make len 0 in
            let moved = Array.make (match hashes with Some _ -> len | None -> 0) 0 in
            let k = ref 0 in
            Array.iteri
              (fun p (order, start, _) ->
                for j = start.(q) to start.(q + 1) - 1 do
                  let i = order.(j) in
                  rows.(!k) <- r.parts.(p).(i);
                  sizes.(!k) <- r.sizes.(p).(i);
                  (match hashes with Some h -> moved.(!k) <- h.(p).(i) | None -> ());
                  incr k
                done)
              tasks;
            ((rows, sizes), moved))
          received
      in
      let max_recv = Array.fold_left max 0 received in
      let dt = float_of_int max_recv *. cfg.Config.net_weight in
      charge st
        {
          Stats.zero with
          shuffled_bytes = moved;
          stages = 1;
          sim_seconds = dt;
        };
      Trace.observe_partitions st.trace received;
      (* a shuffle is a fetch-site stage: a transient fetch failure makes
         one destination partition re-fetch its inputs [fails] times *)
      (match
         Faults.on_stage st.faults ~site:Faults.Shuffle_fetch ~partitions:n
           ~workers:cfg.Config.workers
       with
      | Some (Faults.Fail_fetch { partition; fails }) ->
        let b = received.(partition) in
        charge_recovery st ~retries:fails ~retried:1 ~recomputed:(fails * b)
          ~dt:(float_of_int (fails * b) *. cfg.Config.net_weight)
          ()
      | _ -> ());
      (* receiving workers must hold their partitions — or spill the
         receipts to disk, Spark's shuffle spill *)
      let worker =
        worker_totals cfg ~base:(Memory.pinned st.mem) [ received ]
      in
      check_residency st ~stage ~worker
        ~spillable:(worker_totals cfg [ received ]);
      (* shuffle receipts are recovery lineage too: replaying from the last
         checkpoint would have to re-move them *)
      Checkpoint.observe st.ckpt ~bytes:moved;
      check_deadline st ~stage;
      ( Dataset.make ~key:(Some keys) r.names (Array.map fst dest),
        Option.map (fun _ -> Array.map snd dest) hashes ))

let shuffle st ?stage r keys = fst (shuffle_carrying st ?stage r keys)

(* shuffle only if the guarantee does not already hold; [hashes] as for
   [shuffle_carrying], returned as they are when no row moves *)
let ensure_partitioned st ?stage ?hashes (r : Dataset.t) (keys : S.t list) =
  match r.key with
  | Some k when k = keys -> (r, hashes)
  | _ -> shuffle_carrying st ?stage ?hashes r keys

let total_bytes (r : Dataset.t) = Array.fold_left ( + ) 0 r.bytes

(* gather everything to partition 0 (global aggregates) *)
let gather st (r : Dataset.t) : Dataset.t =
  Trace.with_span st.trace ~op:"Gather" ~stage:"gather" (fun () ->
      charge st { Stats.zero with shuffled_bytes = total_bytes r; stages = 1 };
      Dataset.make r.names (first_only st.cfg.Config.partitions (concat r)))

(* broadcast charge shared by broadcast joins, products, and the broadcast
   cogroup: the right side is resident on every worker *)
let charge_broadcast st rbytes =
  charge st
    { Stats.zero with broadcast_bytes = rbytes * st.cfg.Config.workers }

(* ------------------------------------------------------------------ *)
(* Heavy-key detection (Section 5): per-partition sampling; a key is heavy
   when it covers at least [heavy_threshold] of a partition's sample. The
   set is taken from the incoming skew-triple instead when it is over the
   same key (it "remains associated until the operator alters the key"). *)

let heavy_set st (r : Dataset.t) (keys : S.t list) : K.key_set =
  match r.skew with
  | Some (k, hk) when k = keys -> hk
  | _ ->
    K.heavy_keys ~sample:st.cfg.Config.sample_per_partition
      ~threshold:st.cfg.Config.heavy_threshold keys r.names r.parts

(* Each task splits one partition; the heavy-key set is shared read-only. *)
let split_by_keys st (r : Dataset.t) (keys : S.t list) (hk : K.key_set) =
  let split = K.split_by_keys keys r.names hk in
  let halves = Pool.map st.pool (fun p _ -> split (part r p)) r.parts in
  (Dataset.make ~key:r.key r.names (Array.map fst halves), Dataset.make r.names (Array.map snd halves))

(* [b]'s rows hold [a]'s columns *)
let union_parts ?(skew = None) (a : Dataset.t) (b : Dataset.t) =
  Dataset.make ~skew a.names
    (Array.mapi
       (fun p rows -> (Array.append rows b.parts.(p), Array.append a.sizes.(p) b.sizes.(p)))
       a.parts)

(* ------------------------------------------------------------------ *)
(* Join strategies *)

(* A stage whose right side is replicated to every worker (broadcast join,
   broadcast cogroup, product): [task all_right] builds the per-partition
   task over the replica's rows, whose output has the schema [names]. The
   replica is pinned on every worker for the duration of the stage; it is
   also the stage's build side, so it can spill (external broadcast
   join). *)
let broadcast_stage st ~stage ?key ~names (l : Dataset.t) (r : Dataset.t) task =
  Trace.set_strategy st.trace Trace.Broadcast;
  Trace.set_stage st.trace stage;
  let rbytes = total_bytes r in
  charge_broadcast st rbytes;
  (* tasks share the replica (and any index over it) read-only, which is
     safe across domains *)
  let out = Dataset.make ?key names (pool_parts st (task (concat r)) l) in
  Memory.pin st.mem rbytes;
  Fun.protect
    ~finally:(fun () -> Memory.unpin st.mem rbytes)
    (fun () -> account st ~stage ~spill:Spill_pinned [ l.bytes ] out);
  out

(* A stage over both sides hash-partitioned on their keys (shuffle join,
   shuffle cogroup): each task indexes its right partition and probes it
   with [kernel], whose output has the schema [names]. *)
let shuffle_stage st ~stage ?key (l : Dataset.t) (r : Dataset.t) ~lkey ~rkey (names, kernel) =
  Trace.set_strategy st.trace
    (if l.key = Some lkey && r.key = Some rkey then Trace.Guarantee_skipped
     else Trace.Shuffle);
  Trace.set_stage st.trace stage;
  let l', _ = ensure_partitioned st ~stage l lkey in
  let r', _ = ensure_partitioned st ~stage r rkey in
  let index = K.index rkey r'.names in
  let out =
    Dataset.make ?key names (pool_parts st (fun p lpart -> kernel (index (part r' p)) lpart) l')
  in
  (* external hash join: the per-partition build table over the right side
     is what can stage through disk *)
  account st ~stage ~spill:(Spill_parts [ r'.bytes ])
    [ l'.bytes; r'.bytes ] out;
  out

let broadcast_join st ~stage (l : Dataset.t) (r : Dataset.t) ~lkey ~rkey ~kind =
  let names, join = K.join ~lkey ~kind l.names r.names in
  broadcast_stage st ~stage ~key:l.key ~names l r (fun all_right ->
      let index = K.index rkey r.names all_right in
      fun _ -> join index)

let shuffle_join st ~stage (l : Dataset.t) (r : Dataset.t) ~lkey ~rkey ~kind =
  shuffle_stage st ~stage ~key:(Some lkey) l r ~lkey ~rkey
    (K.join ~lkey ~kind l.names r.names)

(* Figure 6: skew-aware join. The resulting skew-triple carries the heavy
   keys forward. *)
let skew_join st ~stage (l : Dataset.t) (r : Dataset.t) ~lkey ~rkey ~kind : Dataset.t =
  let hk = heavy_set st l lkey in
  if K.key_count hk = 0 then
    { (shuffle_join st ~stage l r ~lkey ~rkey ~kind) with
      skew = Some (lkey, hk) }
  else begin
    Trace.set_strategy st.trace
      (Trace.Skew_split { heavy_keys = K.key_count hk });
    Trace.set_stage st.trace stage;
    let x_l, x_h = split_by_keys st l lkey hk in
    let y_l, y_h = split_by_keys st r rkey hk in
    let light = shuffle_join st ~stage:(stage ^ ":light") x_l y_l ~lkey ~rkey ~kind in
    (* heavy side: X_H keeps its location; Y_H is broadcast *)
    let heavy = broadcast_join st ~stage:(stage ^ ":heavy") x_h y_h ~lkey ~rkey ~kind in
    union_parts ~skew:(Some (lkey, hk)) light heavy
  end

(* ------------------------------------------------------------------ *)
(* Operator dispatch *)

(* [kernel] applied to [r]'s schema gives the output's and the task *)
let map_stage st ~stage ?(key = fun k -> k) ?(keep_skew = false) kernel (r : Dataset.t) =
  let names, f = kernel r.names in
  let out =
    Dataset.make ~key:(key r.key)
      ~skew:(if keep_skew then r.skew else None)
      names
      (pool_parts st (fun _ -> f) r)
  in
  account st ~stage [ r.bytes ] out;
  out

(* The reduce side of both nest operators: bring each group to one
   partition — everything to partition 0 when there is no grouping key —
   and run [kernel] per partition. The grouping hash table is built over
   the shuffled input, so that is the stage's spillable side (external
   group-by). The output is partitioned by the grouping columns, and its
   heavy-key set is null (Figure 6). [hashes], each row's hash under the
   shuffle keys, move with the rows and reach [kernel] partition by
   partition; a gather moves none, nor does a shuffle not given them. *)
let grouped st ~shuffle_at ~stage ?hashes (r : Dataset.t) ~keys ~agg_keys kernel =
  let shuffle_keys = if keys = [] then agg_keys else keys in
  let r', key, moved =
    match shuffle_keys with
    | [] -> (gather st r, None, None)
    | sk ->
      let r', moved = ensure_partitioned st ~stage:shuffle_at ?hashes r (List.map snd sk) in
      (r', Some (List.map (fun (n, _) -> S.Col [ n ]) sk), moved)
  in
  let names, kernel = kernel r'.names in
  let hashes p = match moved with Some m -> m.(p) | None -> [||] in
  let out = Dataset.make ~key names (pool_parts st (fun p -> kernel (hashes p)) r') in
  account st ~stage ~spill:(Spill_parts [ r'.bytes ]) [ r'.bytes ] out;
  out

let next_id_base = ref 0

(* AddIndex ids feed [Kernel.hash_key] and therefore partition assignment; callers
   that need run-for-run determinism (fault-injection replay) reset the
   counter before each run. *)
let reset_ids () = next_id_base := 0

(* One operator over its children's evaluated datasets, left before right. *)
let exec (st : state) (op : Op.t) (inputs : Dataset.t list) : Dataset.t =
  let cfg = st.cfg in
  match op, inputs with
  | Op.Nil cols, [] ->
    Dataset.make (Array.of_list cols) (Array.make cfg.Config.partitions ([||], [||]))
  | Op.UnitRow, [] -> Dataset.make [||] (first_only cfg.Config.partitions ([| Row.empty |], [| 0 |]))
  | Op.Scan { input; binder }, [] -> (
    match Hashtbl.find_opt st.env input with
    | None -> invalid_arg (Printf.sprintf "Executor: unknown input %S" input)
    | Some (ds : Dataset.t) ->
      (* the stored column ["item"], renamed: its rows and sizes as they are *)
      Trace.set_stage st.trace input;
      let rename = function S.Col (_ :: path) -> S.Col (binder :: path) | k -> k in
      let r = { ds with names = [| binder |]; key = Option.map (List.map rename) ds.key } in
      trace_rows_in st [ r ];
      r)
  | Op.Select (p, _), [ r ] ->
    map_stage st ~stage:"select" ~keep_skew:true (K.select p) r
  | Op.Project (fields, _), [ r ] ->
    (* the guarantee survives if every key expr is re-exposed verbatim *)
    let reexposed e =
      Option.map (fun (n, _) -> S.Col [ n ]) (List.find_opt (fun (_, fe) -> fe = e) fields)
    in
    let new_key = Option.bind r.key (fun ks -> all_some (List.map reexposed ks)) in
    map_stage st ~stage:"project" (K.project fields) r
      ~key:(fun _ -> new_key)
  | Op.Join { lkey; rkey; kind; _ }, [ l; r ] ->
    if st.opts.skew_aware then skew_join st ~stage:"join(skew)" l r ~lkey ~rkey ~kind
    else if total_bytes r <= cfg.Config.broadcast_limit then
      broadcast_join st ~stage:"join(broadcast)" l r ~lkey ~rkey ~kind
    else shuffle_join st ~stage:"join(shuffle)" l r ~lkey ~rkey ~kind
  | Op.Cogroup { lkey; rkey; kind; keys; item; presence; out; _ }, [ l; r ] ->
    let ((names, cogroup) as kernel) =
      K.cogroup ~lkey ~kind ~keys ~item ~presence ~out l.names r.names
    in
    if total_bytes r <= cfg.Config.broadcast_limit then
      (* broadcast cogroup: no shuffle at all *)
      broadcast_stage st ~stage:"cogroup(broadcast)" ~names l r (fun all_right ->
          let index = K.index rkey r.names all_right in
          fun _ -> cogroup index)
    else shuffle_stage st ~stage:"cogroup" l r ~lkey ~rkey kernel
  | Op.Product _, [ l; r ] ->
    let names, product = K.product l.names r.names in
    broadcast_stage st ~stage:"product" ~key:l.key ~names l r (fun all_right _ lpart ->
        product lpart all_right)
  | Op.Unnest { path; binder; outer; drop; _ }, [ r ] ->
    map_stage st ~stage:"unnest" ~keep_skew:true (K.unnest ~path ~binder ~outer ~drop) r
  | Op.AddIndex { col; _ }, [ r ] ->
    incr next_id_base;
    let base = !next_id_base * (1 lsl 50) in
    let names, add = K.add_index ~col r.names in
    let out =
      Dataset.make ~key:r.key ~skew:r.skew names
        (pool_parts st (fun p -> add (fun i -> base + (p lsl 28) + i)) r)
    in
    account st ~stage:"add_index" [ r.bytes ] out;
    out
  | Op.NestBag { input; keys; agg_keys; item; presence; out }, [ r ] ->
    grouped st ~shuffle_at:"nest" ~stage:"nest_bag" r ~keys ~agg_keys (fun names ->
        let names, nest =
          K.nest_bag ~ids:(Op.ids input) ~keys ~agg_keys ~item ~presence ~out names
        in
        (names, fun _ -> nest))
  | Op.NestSum { input; keys; agg_keys; aggs; presence }, [ r ] ->
    (* map-side combine (Spark partial aggregation): pre-aggregate each
       partition before shuffling, so Gamma-plus "mitigates skew-effects by
       default by reducing the values of all keys" (Section 5) *)
    let names, combine =
      K.nest_sum_combine ~ids:(Op.ids input) ~keys ~agg_keys ~aggs ~presence r.names
    in
    let combined = Pool.map st.pool (fun p rows -> combine (rows, r.sizes.(p))) r.parts in
    let partials = Dataset.make names (Array.map fst combined) in
    account st ~stage:"nest_sum(combine)" ~spill:(Spill_parts [ r.bytes ])
      [ r.bytes ] partials;
    (* reduce side: sum the partial sums, each partial row carrying its
       shuffle hash from the combine, shuffled on the key columns, which
       the keys name as they name the output's *)
    let cols = List.map (fun (n, _) -> (n, S.Col [ n ])) in
    grouped st ~shuffle_at:"nest_sum" ~stage:"nest_sum" ~hashes:(Array.map snd combined)
      partials ~keys:(cols keys) ~agg_keys:(cols agg_keys)
      (K.nest_sum_reduce ~ids:(Op.ids op) ~keys ~agg_keys ~aggs)
  | Op.Dedup child, [ r ] ->
    let key_exprs = List.map (fun c -> S.Col [ c ]) (Op.columns child) in
    let r', _ = ensure_partitioned st ~stage:"dedup" r key_exprs in
    map_stage st ~stage:"dedup" K.dedup r'
  | Op.UnionAll _, [ l; r ] ->
    (* the right side takes the left side's columns, as they are *)
    let names, align = K.align l.names r.names in
    union_parts l (Dataset.make names (pool_parts st (fun _ -> align) r))
  | Op.BagToDict { label; _ }, [ r ] ->
    if st.opts.skew_aware then begin
      (* Figure 6: repartition only light labels; heavy labels stay put;
         the resulting dictionary is a skew-triple with known heavy keys *)
      let hk = heavy_set st r [ label ] in
      if K.key_count hk = 0 then
        { (shuffle st ~stage:"bag_to_dict" r [ label ]) with
          skew = Some ([ label ], hk) }
      else begin
        Trace.set_strategy st.trace
          (Trace.Skew_split { heavy_keys = K.key_count hk });
        let light, heavy = split_by_keys st r [ label ] hk in
        let light' = shuffle st ~stage:"bag_to_dict(light)" light [ label ] in
        union_parts ~skew:(Some ([ label ], hk)) light' heavy
      end
    end
    else shuffle st ~stage:"bag_to_dict" r [ label ]
  | op, _ -> invalid_arg ("Executor: arity of " ^ Op.name op)

(* Each operator is one span: its children run inside it, left before
   right, and their rows are its rows in before its own stages run. *)
let rec run (st : state) (op : Op.t) : Dataset.t =
  Trace.with_span st.trace ~op:(Op.name op) (fun () ->
      let inputs = List.map (run st) (Op.children op) in
      trace_rows_in st inputs;
      exec st op inputs)

(* ------------------------------------------------------------------ *)
(* Entry points *)

let run_rows ?(options = default_options) ?trace ?faults ~checkpoint ~pool ~config
    ~stats (env : env) (plan : Op.t) : Dataset.t =
  run
    { cfg = config; opts = options; stats; trace; faults;
      ckpt = checkpoint; mem = Memory.create ?faults config; env; pool }
    plan

(** Execute one plan against named datasets on the run's pool and
    checkpoint manager; returns the result dataset. *)
let run_plan ?options ?trace ?faults ~checkpoint ~pool ~config ~stats (env : env)
    (plan : Op.t) : Dataset.t =
  let (r : Dataset.t) = run_rows ?options ?trace ?faults ~checkpoint ~pool ~config ~stats env plan in
  let key, pack = K.pack r.names in
  Dataset.make
    ~key:(Option.bind r.key (fun ks -> all_some (List.map key ks)))
    [| "item" |]
    (Pool.map pool (fun p rows -> pack (rows, r.sizes.(p))) r.parts)
