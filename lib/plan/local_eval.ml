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
   their rows, with the facts the executor gives it. *)
let rec sized (env : env) (op : Op.t) : K.sized =
  match op, List.map (sized env) (Op.children op) with
  | Op.Nil _, [] -> ([||], [||])
  | Op.UnitRow, [] -> K.sized [| Row.empty |]
  | Op.Scan { input; binder }, [] ->
    K.scan ~binder (Row.array_of_list V.Null (lookup env input))
  | Op.Select (p, _), [ rows ] -> K.select p rows
  | Op.Project (fields, _), [ rows ] -> K.project fields rows
  | Op.Join { right; lkey; rkey; kind; _ }, [ l; r ] ->
    K.join ~lkey ~kind ~rcols:(Op.columns right) (K.index rkey r) l
  | Op.Cogroup { right; lkey; rkey; kind; keys; item; presence; out; _ }, [ l; r ] ->
    K.cogroup ~lkey ~kind ~rcols:(Op.columns right) ~keys ~item ~presence ~out
      (K.index rkey r) l
  | Op.Product _, [ l; r ] -> K.product l r
  | Op.Unnest { path; binder; outer; drop; _ }, [ rows ] ->
    K.unnest ~path ~binder ~outer ~drop rows
  | Op.AddIndex { col; _ }, [ rows ] ->
    K.add_index ~col (fun _ -> incr next_index; !next_index) rows
  | Op.NestBag { input; keys; agg_keys; item; presence; out }, [ rows ] ->
    K.nest_bag ~ids:(Op.ids input) ~keys ~agg_keys ~item ~presence ~out rows
  | Op.NestSum { input; keys; agg_keys; aggs; presence }, [ rows ] ->
    K.nest_sum ~ids:(Op.ids input) ~keys ~agg_keys ~aggs ~presence rows
  | Op.Dedup _, [ rows ] -> K.dedup rows
  | Op.UnionAll (left, _), [ (l, ls); r ] ->
    let r, rs = K.align (Op.columns left) r in
    (Array.append l r, Array.append ls rs)
  | Op.BagToDict _, [ rows ] -> rows
  | op, _ -> invalid_arg ("Local_eval: arity of " ^ Op.name op)

let eval env op = fst (sized env op)

(** Evaluate a plan and package the result rows as a bag, using the plan's
    column names as attributes ({!Kernel.values}). *)
let eval_to_bag (env : env) (op : Op.t) : V.t =
  V.Bag (Array.to_list (K.values (Op.columns op) (eval env op)))
