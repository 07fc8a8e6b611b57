(** Partitioned data of the cluster simulator: rows under one schema,
    partition by partition, each beside its carried size, plus an optional
    partitioning guarantee over the columns; see dataset.mli. *)

module V = Nrc.Value
module Row = Plan.Row
module K = Plan.Kernel

type t = {
  names : K.names;
  parts : Row.t array array;
  sizes : int array array;
  bytes : int array;
  key : Plan.Sexpr.t list option;
  skew : (Plan.Sexpr.t list * K.key_set) option;
}

let make ?(key = None) ?(skew = None) names (sized : K.sized array) =
  let sizes = Array.map snd sized in
  { names; parts = Array.map fst sized; sizes; bytes = Array.map K.total sizes; key; skew }

let partition_count t = Array.length t.parts

let total_rows t =
  Array.fold_left (fun acc p -> acc + Array.length p) 0 t.parts

(* A stored dataset: each element a one-column row, in the partition
   [place i row] gives the [i]-th, and sized once, here. *)
let load ~partitions ?key place (v : V.t) : t =
  let parts = Array.make partitions [] in
  List.iteri
    (fun i item ->
      let row = [| item |] in
      let p = place i row in
      parts.(p) <- row :: parts.(p))
    (V.bag_items v);
  make ~key [| "item" |]
    (Array.map (fun rev -> K.sized (Row.array_of_list Row.empty (List.rev rev))) parts)

(** Round-robin distribution of a bag's elements (no guarantee), mirroring
    block distribution of freshly loaded data. *)
let of_bag ~partitions v = load ~partitions (fun i _ -> i mod partitions) v

(** Hash distribution by key: establishes the guarantee. *)
let of_bag_by ~partitions ~key v =
  let hash = K.key_hasher key [| "item" |] in
  load ~partitions ~key (fun _ row -> hash row mod partitions) v

let to_bag t : V.t =
  V.Bag
    (List.concat_map (fun p -> List.map (fun (r : Row.t) -> r.(0)) (Array.to_list p))
       (Array.to_list t.parts))
