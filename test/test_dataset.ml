(** Direct unit tests for the partitioner underneath the executor:
    round-robin placement of freshly loaded bags, the hash co-location
    guarantee of [of_bag_by], and the multiset round-trip through
    [to_bag] with its row count. These invariants are what the
    shuffle-elision and recovery layers silently rely on. *)

module V = Nrc.Value
module D = Exec.Dataset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let count = Fixtures.qcheck_count

let row k v =
  V.Tuple [ ("k", V.Int k); ("v", V.Str (Printf.sprintf "row-%d" v)) ]

let bag n = V.Bag (List.init n (fun i -> row (i mod 5) i))

(* the field [k] of a stored element *)
let item_k = Plan.Sexpr.Col [ "item"; "k" ]

(* ------------------------------------------------------------------ *)
(* Round-robin *)

(* of_bag places element i in partition [i mod partitions] — Spark's block
   distribution of freshly loaded data — and never claims a guarantee *)
let test_round_robin_placement () =
  let n = 23 and partitions = 4 in
  let d = D.of_bag ~partitions (bag n) in
  check_int "partition count" partitions (D.partition_count d);
  check "no partitioning guarantee" true (d.D.key = None);
  Array.iteri
    (fun p part ->
      Array.iter
        (fun item ->
          match V.field item "v" with
          | V.Str s ->
            let i = Scanf.sscanf s "row-%d" (fun i -> i) in
            check_int (Printf.sprintf "element %d lands in %d mod %d" i i partitions)
              (i mod partitions) p
          | _ -> Alcotest.fail "unexpected row shape")
        part)
    (Fixtures.elements d);
  check_int "rows preserved" n (D.total_rows d)

(* round-robin balance: partition sizes differ by at most one *)
let test_round_robin_balance () =
  List.iter
    (fun (n, partitions) ->
      let d = D.of_bag ~partitions (bag n) in
      let sizes = Array.map Array.length d.D.parts in
      let mn = Array.fold_left min max_int sizes in
      let mx = Array.fold_left max 0 sizes in
      check (Printf.sprintf "n=%d p=%d balanced" n partitions) true
        (mx - mn <= 1))
    [ (0, 3); (1, 3); (7, 3); (24, 8); (100, 7) ]

(* ------------------------------------------------------------------ *)
(* Hash partitioning *)

(* of_bag_by's guarantee: equal keys share a partition, and the recorded
   key paths are exactly the ones hashed *)
let test_hash_colocation () =
  let partitions = 5 in
  let d = D.of_bag_by ~partitions ~key:[ item_k ] (bag 40) in
  check "guarantee recorded" true (d.D.key = Some [ item_k ]);
  let home = Hashtbl.create 8 in
  Array.iteri
    (fun p part ->
      Array.iter
        (fun item ->
          let k = V.field item "k" in
          match Hashtbl.find_opt home k with
          | None -> Hashtbl.add home k p
          | Some p' ->
            check (Fmt.str "key %a co-located" V.pp k) true (p = p'))
        part)
    (Fixtures.elements d);
  check_int "rows preserved" 40 (D.total_rows d)

let gen_rows : V.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_bound 60 in
  let* keys = list_size (return n) (int_bound 7) in
  return (V.Bag (List.mapi (fun i k -> row k i) keys))

let arbitrary_case =
  QCheck.make
    ~print:(fun (v, p) -> Fmt.str "partitions=%d@ %a" p V.pp v)
    QCheck.Gen.(pair gen_rows (int_range 1 9))

(* Each element must also sit exactly where a shuffle on the same key
   would send it, [Kernel.hash_key kv mod n]: a join that skips its
   shuffle because of the guarantee probes only that partition. *)
let prop_colocation =
  QCheck.Test.make
    ~name:"of_bag_by: equal keys always share a partition, rows preserved"
    ~count:(count 200) arbitrary_case (fun (v, partitions) ->
      let d = D.of_bag_by ~partitions ~key:[ item_k ] v in
      let home = Hashtbl.create 8 in
      let ok = ref true in
      Array.iteri
        (fun p part ->
          Array.iter
            (fun item ->
              let k = V.field item "k" in
              if Plan.Kernel.hash_key [ k ] mod partitions <> p then ok := false;
              match Hashtbl.find_opt home k with
              | None -> Hashtbl.add home k p
              | Some p' -> if p <> p' then ok := false)
            part)
        (Fixtures.elements d);
      !ok
      && D.total_rows d = List.length (V.bag_items v)
      && V.approx_bag_equal (D.to_bag d) v)

(* ------------------------------------------------------------------ *)
(* Adversarial hashing. [abs] maps a [min_int] hash fold to itself, so the
   old normalisation could hand a negative index to [mod] and read out of
   bounds; the [land max_int] mask cannot. These generators aim the fold at
   the extremes (min_int/max_int key components, collisions, empty and
   multi-component keys) and pin the contract down. *)

let gen_adversarial_value : V.t QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      map (fun i -> V.Int i)
        (oneofl [ min_int; min_int + 1; max_int; -1; 0; 1; 31; -31 ]);
      map (fun i -> V.Int i) int;
      map (fun s -> V.Str s) (string_size ~gen:printable (int_bound 6));
      return (V.Bool true);
      return (V.Real 0.5);
    ]

let arbitrary_key_case =
  QCheck.make
    ~print:(fun (kv, n) ->
      Fmt.str "n=%d [%a]" n (Fmt.list ~sep:Fmt.semi V.pp) kv)
    QCheck.Gen.(
      pair (list_size (int_range 0 4) gen_adversarial_value) (int_range 1 9))

let prop_hash_key_in_range =
  QCheck.Test.make
    ~name:"hash_key: non-negative; partition index always in [0, n)"
    ~count:(count 500) arbitrary_key_case (fun (kv, n) ->
      let h = Plan.Kernel.hash_key kv in
      h >= 0 && 0 <= h mod n && h mod n < n)

let arbitrary_extreme_bag =
  QCheck.make
    ~print:(fun (ks, n) -> Fmt.str "partitions=%d keys=%d" n (List.length ks))
    QCheck.Gen.(
      pair
        (list_size (int_bound 40)
           (oneofl [ min_int; min_int + 1; max_int; -1; 0; 1; 7 ]))
        (int_range 1 9))

(* the shuffle path itself: extreme and colliding keys must place without
   raising, keep equal keys co-located, and lose no rows *)
let prop_adversarial_shuffle =
  QCheck.Test.make
    ~name:"of_bag_by: min_int-hashing keys never raise, co-location holds"
    ~count:(count 200) arbitrary_extreme_bag (fun (ks, partitions) ->
      let v = V.Bag (List.mapi (fun i k -> row k i) ks) in
      let d = D.of_bag_by ~partitions ~key:[ item_k ] v in
      let home = Hashtbl.create 8 in
      let ok = ref true in
      Array.iteri
        (fun p part ->
          Array.iter
            (fun item ->
              let k = V.field item "k" in
              match Hashtbl.find_opt home k with
              | None -> Hashtbl.add home k p
              | Some p' -> if p <> p' then ok := false)
            part)
        (Fixtures.elements d);
      !ok
      && D.total_rows d = List.length ks
      && V.approx_bag_equal (D.to_bag d) v)

(* ------------------------------------------------------------------ *)
(* Multiset round-trip and accounting *)

let prop_roundtrip =
  QCheck.Test.make
    ~name:"of_bag / to_bag: multiset round-trip at any partition count"
    ~count:(count 200) arbitrary_case (fun (v, partitions) ->
      let d = D.of_bag ~partitions v in
      V.approx_bag_equal (D.to_bag d) v
      && D.total_rows d = List.length (V.bag_items v))

let test_empty () =
  let d = D.of_bag ~partitions:6 (V.Bag []) in
  check_int "partitions" 6 (D.partition_count d);
  check_int "no rows" 0 (D.total_rows d);
  check "empty bag" true (D.to_bag d = V.Bag [])

(* worker_of_partition is the round-robin placement the crash injector
   uses to decide which partitions die with a worker *)
let test_worker_of_partition () =
  let cfg = { Exec.Config.unbounded with workers = 3; partitions = 7 } in
  List.iter
    (fun p ->
      check_int (Printf.sprintf "partition %d" p) (p mod 3)
        (Exec.Config.worker_of_partition cfg p))
    [ 0; 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dataset"
    [
      ( "round-robin",
        [
          Alcotest.test_case "placement is i mod partitions" `Quick
            test_round_robin_placement;
          Alcotest.test_case "sizes differ by at most one" `Quick
            test_round_robin_balance;
        ] );
      ( "hash partitioning",
        [
          Alcotest.test_case "equal keys co-located, guarantee recorded"
            `Quick test_hash_colocation;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_colocation; prop_hash_key_in_range; prop_adversarial_shuffle ]
      );
      ( "round-trip and accounting",
        [
          Alcotest.test_case "empty dataset" `Quick test_empty;
          Alcotest.test_case "worker_of_partition is round-robin" `Quick
            test_worker_of_partition;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_roundtrip ] );
    ]
