(** Algebraic properties of the {!Exec.Stats.snapshot} slice arithmetic.

    {!Trance.Api} computes per-step slices with [snapshot] + [diff] and
    promises that slices [merge] back to the run totals; the fault layer
    leans on the same algebra for its recovery counters. These properties
    pin the laws down: [merge] is a commutative monoid with [zero] (peaks
    by [max], everything else additive), [diff] inverts [merge] on the
    additive counters, and the one recording path, {!Exec.Trace.charge},
    keeps the run total and the span tree in agreement without letting
    tracing perturb the total. The float counters are generated as
    multiples of 1/8, so every sum is exact in any order. *)

module S = Exec.Stats

let count = Fixtures.qcheck_count

let gen_snapshot : S.snapshot QCheck.Gen.t =
  let open QCheck.Gen in
  let small = int_bound 10_000 in
  let* shuffled_bytes = small in
  let* broadcast_bytes = small in
  let* peak_worker_bytes = small in
  let* rows_processed = small in
  let* stages = int_bound 50 in
  let eighths n = map (fun k -> float_of_int k /. 8.) (int_bound n) in
  let* sim_seconds = eighths 8_000 in
  let* task_retries = int_bound 20 in
  let* retried_tasks = int_bound 20 in
  let* speculative_tasks = int_bound 5 in
  let* recomputed_bytes = small in
  let* spilled_bytes = small in
  let* spill_partitions = int_bound 50 in
  let* spill_rounds = int_bound 20 in
  let* checkpoints_written = int_bound 20 in
  let* checkpoint_bytes = small in
  let* lineage_truncated = small in
  let* recovery_seconds = eighths 800 in
  let* wall_seconds = eighths 800 in
  return
    {
      S.shuffled_bytes;
      broadcast_bytes;
      peak_worker_bytes;
      rows_processed;
      stages;
      sim_seconds;
      task_retries;
      retried_tasks;
      speculative_tasks;
      recomputed_bytes;
      spilled_bytes;
      spill_partitions;
      spill_rounds;
      checkpoints_written;
      checkpoint_bytes;
      lineage_truncated;
      recovery_seconds;
      wall_seconds;
    }

let arbitrary_snapshot =
  QCheck.make ~print:(Fmt.str "%a" S.pp_snapshot) gen_snapshot

let pair = QCheck.pair arbitrary_snapshot arbitrary_snapshot
let triple = QCheck.triple arbitrary_snapshot arbitrary_snapshot arbitrary_snapshot

let prop_merge_zero =
  QCheck.Test.make ~name:"merge: zero is the identity" ~count:(count 200)
    arbitrary_snapshot (fun a ->
      S.merge a S.zero = a && S.merge S.zero a = a)

let prop_merge_comm =
  QCheck.Test.make ~name:"merge: commutative" ~count:(count 200) pair
    (fun (a, b) -> S.merge a b = S.merge b a)

let prop_merge_assoc =
  QCheck.Test.make ~name:"merge: associative" ~count:(count 200) triple
    (fun (a, b, c) -> S.merge (S.merge a b) c = S.merge a (S.merge b c))

let prop_diff_zero =
  QCheck.Test.make ~name:"diff: subtracting zero is the identity"
    ~count:(count 200) arbitrary_snapshot (fun a -> S.diff a S.zero = a)

let prop_diff_self =
  QCheck.Test.make
    ~name:"diff: a - a is zero except the high-water peak" ~count:(count 200)
    arbitrary_snapshot (fun a ->
      S.diff a a = { S.zero with S.peak_worker_bytes = a.S.peak_worker_bytes })

(* the law the per-step reports rely on: a later snapshot minus an earlier
   one recovers exactly the counters charged in between (the peak stays a
   run-wide high-water mark) *)
let prop_diff_inverts_merge =
  QCheck.Test.make ~name:"diff: (a merge b) - b recovers a's additive part"
    ~count:(count 200) pair (fun (a, b) ->
      let after = S.merge a b in
      S.diff after b
      = { a with
          S.peak_worker_bytes =
            max a.S.peak_worker_bytes b.S.peak_worker_bytes })

let prop_merge_monotone =
  QCheck.Test.make ~name:"merge: never loses counters" ~count:(count 200)
    pair (fun (a, b) ->
      let m = S.merge a b in
      m.S.shuffled_bytes = a.S.shuffled_bytes + b.S.shuffled_bytes
      && m.S.task_retries = a.S.task_retries + b.S.task_retries
      && m.S.retried_tasks = a.S.retried_tasks + b.S.retried_tasks
      && m.S.speculative_tasks = a.S.speculative_tasks + b.S.speculative_tasks
      && m.S.recomputed_bytes = a.S.recomputed_bytes + b.S.recomputed_bytes
      && m.S.spilled_bytes = a.S.spilled_bytes + b.S.spilled_bytes
      && m.S.spill_partitions = a.S.spill_partitions + b.S.spill_partitions
      && m.S.spill_rounds = a.S.spill_rounds + b.S.spill_rounds
      && m.S.peak_worker_bytes
         = max a.S.peak_worker_bytes b.S.peak_worker_bytes)

(* A charge script: counter deltas charged inside a random nesting of
   spans, as the executor charges them inside nested operator spans. *)
type script = Charge of S.snapshot | Span of script list

let gen_script : script list QCheck.Gen.t =
  let open QCheck.Gen in
  let charge = map (fun d -> Charge d) gen_snapshot in
  let node =
    sized
    @@ fix (fun self n ->
           if n <= 1 then charge
           else
             frequency
               [
                 (3, charge);
                 (1, map (fun l -> Span l) (list_size (int_bound 4) (self (n / 4))));
               ])
  in
  list_size (int_bound 12) node

let rec pp_script ppf = function
  | Charge d -> Fmt.pf ppf "charge {%a}" S.pp_snapshot d
  | Span l -> Fmt.pf ppf "@[<v 2>span@,%a@]" Fmt.(list pp_script) l

let arbitrary_script =
  QCheck.make ~print:(Fmt.str "@[<v>%a@]" Fmt.(list pp_script)) gen_script

(* play a script under one root span, as Api wraps each assignment *)
let play trace stats script =
  let rec go = function
    | Charge d -> Exec.Trace.charge trace stats d
    | Span l -> Exec.Trace.with_span trace ~op:"span" (fun () -> List.iter go l)
  in
  Exec.Trace.with_span trace ~op:"root" (fun () -> List.iter go script)

let prop_charge_once =
  QCheck.Test.make
    ~name:"charge: tracing leaves the total bit-identical; spans sum to it"
    ~count:(count 200) arbitrary_script (fun script ->
      let untraced = S.create () and traced = S.create () in
      play None untraced script;
      let ctx = Exec.Trace.create () in
      play (Some ctx) traced script;
      let total = S.snapshot traced in
      S.snapshot untraced = total
      && (Exec.Trace.agg (Exec.Trace.roots ctx)).Exec.Trace.counters = total)

let () =
  Alcotest.run "stats"
    [
      ( "snapshot algebra",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_merge_zero;
            prop_merge_comm;
            prop_merge_assoc;
            prop_diff_zero;
            prop_diff_self;
            prop_diff_inverts_merge;
            prop_merge_monotone;
          ] );
      ("charge", [ QCheck_alcotest.to_alcotest prop_charge_once ]);
    ]
