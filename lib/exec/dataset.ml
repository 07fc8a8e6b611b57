(** Partitioned datasets of the cluster simulator.

    A dataset is an array of partitions of values (top-level tuples — the
    granularity at which Spark distributes collections) plus an optional
    partitioning guarantee: the field paths whose hash decided each value's
    partition. Operators consume and produce datasets; the guarantee lets
    the executor skip shuffles exactly where Spark's partitioner would
    (Section 3, "Operators effect the partitioning guarantee"). *)

module V = Nrc.Value

type t = {
  parts : V.t array array;
  key : string list list option;
      (* field paths into each element; [Some keys] means all elements whose
         key values are equal live in the same partition *)
}

let partition_count t = Array.length t.parts

let total_rows t =
  Array.fold_left (fun acc p -> acc + Array.length p) 0 t.parts

(* a partition's elements, pushed in reverse *)
let of_rev_list l = Plan.Row.array_of_list V.Null (List.rev l)

(** Round-robin distribution of a bag's elements (no guarantee), mirroring
    block distribution of freshly loaded data. *)
let of_bag ~partitions (v : V.t) : t =
  let items = V.bag_items v in
  let parts = Array.make partitions [] in
  List.iteri
    (fun i item ->
      let p = i mod partitions in
      parts.(p) <- item :: parts.(p))
    items;
  { parts = Array.map of_rev_list parts; key = None }

(** Hash distribution by field paths: establishes the key guarantee. Used to
    pre-partition dictionaries by label. *)
let of_bag_by ~partitions ~key (v : V.t) : t =
  let items = V.bag_items v in
  let parts = Array.make partitions [] in
  List.iter
    (fun item ->
      let kv = List.map (fun path -> List.fold_left V.field item path) key in
      let p = Plan.Kernel.hash_key kv mod partitions in
      parts.(p) <- item :: parts.(p))
    items;
  {
    parts = Array.map of_rev_list parts;
    key = Some key;
  }

let to_bag t : V.t =
  V.Bag (Array.to_list t.parts |> List.concat_map Array.to_list)
