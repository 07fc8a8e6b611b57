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

(* Children first, left before right, then the operator's kernel over
   their rows. *)
let rec eval (env : env) (op : Op.t) : Row.t array =
  match op, List.map (eval env) (Op.children op) with
  | Op.Nil _, [] -> [||]
  | Op.UnitRow, [] -> [| Row.empty |]
  | Op.Scan { input; binder }, [] ->
    fst (K.scan ~binder (Row.array_of_list V.Null (lookup env input)))
  | Op.Select (p, _), [ rows ] -> fst (K.select p rows)
  | Op.Project (fields, _), [ rows ] -> fst (K.project fields rows)
  | Op.Join { right; lkey; rkey; kind; _ }, [ l; r ] ->
    fst (K.join ~lkey ~kind ~rcols:(Op.columns right) (K.index rkey r) l)
  | Op.Cogroup { right; lkey; rkey; kind; keys; item; presence; out; _ }, [ l; r ] ->
    fst
      (K.cogroup ~lkey ~kind ~rcols:(Op.columns right) ~keys ~item ~presence
         ~out (K.index rkey r) l)
  | Op.Product _, [ l; r ] ->
    (* one partition: the carried sizes are never read *)
    fst (K.product (l, 0) (r, 0))
  | Op.Unnest { path; binder; outer; drop; _ }, [ rows ] ->
    fst (K.unnest ~path ~binder ~outer ~drop rows)
  | Op.AddIndex { col; _ }, [ rows ] ->
    K.add_index ~col (fun _ -> incr next_index; !next_index) rows
  | Op.NestBag { keys; agg_keys; item; presence; out; _ }, [ rows ] ->
    fst (K.nest_bag ~keys ~agg_keys ~item ~presence ~out rows)
  | Op.NestSum { keys; agg_keys; aggs; presence; _ }, [ rows ] ->
    fst (K.nest_sum ~keys ~agg_keys ~aggs ~presence rows)
  | Op.Dedup _, [ rows ] -> fst (K.dedup rows)
  | Op.UnionAll (left, _), [ l; r ] ->
    Array.append l (fst (K.align (Op.columns left) r))
  | Op.BagToDict _, [ rows ] -> rows
  | op, _ -> invalid_arg ("Local_eval: arity of " ^ Op.name op)

(** Evaluate a plan and package the result rows as a bag, using the plan's
    column names as attributes ({!Kernel.values}). *)
let eval_to_bag (env : env) (op : Op.t) : V.t =
  V.Bag (Array.to_list (K.values (Op.columns op) (eval env op)))
