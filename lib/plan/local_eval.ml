(** Single-node plan interpreter: runs a plan as one partition through the
    same {!Kernel} row code the distributed executor runs per partition.
    Comparing the executor with it therefore checks distribution (shuffles,
    partitioning guarantees, skew splits); {!Nrc.Eval} checks semantics. *)

module V = Nrc.Value
module K = Kernel

type env = (string, V.t list) Hashtbl.t
(** named datasets: bag items per input name *)

let env_of_list l : env =
  let h = Hashtbl.create 16 in
  List.iter
    (fun (name, items) ->
      match (items : V.t) with
      | V.Bag xs -> Hashtbl.replace h name xs
      | v -> Hashtbl.replace h name [ v ])
    l;
  h

let lookup (env : env) name =
  match Hashtbl.find_opt env name with
  | Some items -> items
  | None -> invalid_arg (Printf.sprintf "Local_eval: unknown input %S" name)

let next_index = ref 0

let rec eval (env : env) (op : Op.t) : Row.t array =
  match op with
  | Op.Nil _ -> [||]
  | Op.UnitRow -> [| Row.empty |]
  | Op.Scan { input; binder } ->
    fst (K.scan ~binder (Row.array_of_list V.Null (lookup env input)))
  | Op.Select (p, child) -> fst (K.select p (eval env child))
  | Op.Project (fields, child) -> fst (K.project fields (eval env child))
  | Op.Join { left; right; lkey; rkey; kind } ->
    let lrows = eval env left in
    let index = K.index rkey (eval env right) in
    fst (K.join ~lkey ~kind ~rcols:(Op.columns right) index lrows)
  | Op.Product (left, right) ->
    (* one partition: the carried sizes are never read *)
    fst (K.product (eval env left, 0) (eval env right, 0))
  | Op.Unnest { input; path; binder; outer; drop } ->
    fst (K.unnest ~path ~binder ~outer ~drop (eval env input))
  | Op.AddIndex { input; col } ->
    K.add_index ~col
      (fun _ ->
        incr next_index;
        !next_index)
      (eval env input)
  | Op.NestBag { input; keys; agg_keys; item; presence; out } ->
    fst (K.nest_bag ~keys ~agg_keys ~item ~presence ~out (eval env input))
  | Op.NestSum { input; keys; agg_keys; aggs; presence } ->
    fst (K.nest_sum ~keys ~agg_keys ~aggs ~presence (eval env input))
  | Op.Dedup child -> fst (K.dedup (eval env child))
  | Op.UnionAll (left, right) ->
    let lrows = eval env left in
    Array.append lrows (fst (K.align (Op.columns left) (eval env right)))
  | Op.BagToDict { input; _ } -> eval env input

(** Evaluate a plan and package the result rows as a bag, using the plan's
    column names as attributes ({!Kernel.values}). *)
let eval_to_bag (env : env) (op : Op.t) : V.t =
  V.Bag (Array.to_list (K.values (Op.columns op) (eval env op)))
