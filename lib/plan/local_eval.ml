(** Single-node plan interpreter: runs a plan as one partition through the
    same {!Kernel} row code the distributed executor runs per partition.
    Comparing the executor with it therefore checks distribution (shuffles,
    partitioning guarantees, skew splits); {!Nrc.Eval} checks semantics. *)

module V = Nrc.Value
module K = Kernel

type env = (string, K.sized) Hashtbl.t
(** named datasets: one row per bag item, its column the item *)

let add (env : env) name (v : V.t) =
  let items = match v with V.Bag xs -> xs | v -> [ v ] in
  Hashtbl.replace env name (K.sized (Row.array_of_list Row.empty (List.map (fun v -> [| v |]) items)))

let env_of_list l : env =
  let h = Hashtbl.create 16 in
  List.iter (fun (name, v) -> add h name v) l;
  h

let next_index = ref 0

(* Children first, left before right, then the operator's kernel over
   their rows and schemas, with the facts the executor gives it. *)
let rec sized (env : env) (op : Op.t) : K.names * K.sized =
  let unary (names, kernel) rows = (names, kernel rows) in
  match op, List.map (sized env) (Op.children op) with
  | Op.Nil cols, [] -> (Array.of_list cols, ([||], [||]))
  | Op.UnitRow, [] -> ([||], K.sized [| Row.empty |])
  | Op.Scan { input; binder }, [] -> (
    match Hashtbl.find_opt env input with
    | Some rows -> ([| binder |], rows)
    | None -> invalid_arg (Printf.sprintf "Local_eval: unknown input %S" input))
  | Op.Select (p, _), [ (names, rows) ] -> unary (K.select p names) rows
  | Op.Project (fields, _), [ (names, rows) ] -> unary (K.project fields names) rows
  | Op.Join { lkey; rkey; kind; _ }, [ (lnames, l); (rnames, r) ] ->
    let names, join = K.join ~lkey ~kind lnames rnames in
    (names, join (K.index rkey rnames r) l)
  | Op.Cogroup { lkey; rkey; kind; keys; item; presence; out; _ },
    [ (lnames, l); (rnames, r) ] ->
    let names, cogroup = K.cogroup ~lkey ~kind ~keys ~item ~presence ~out lnames rnames in
    (names, cogroup (K.index rkey rnames r) l)
  | Op.Product _, [ (lnames, l); (rnames, r) ] ->
    let names, product = K.product lnames rnames in
    (names, product l r)
  | Op.Unnest { path; binder; outer; drop; _ }, [ (names, rows) ] ->
    unary (K.unnest ~path ~binder ~outer ~drop names) rows
  | Op.AddIndex { col; _ }, [ (names, rows) ] ->
    let names, add = K.add_index ~col names in
    (names, add (fun _ -> incr next_index; !next_index) rows)
  | Op.NestBag { input; keys; agg_keys; item; presence; out }, [ (names, rows) ] ->
    unary (K.nest_bag ~ids:(Op.ids input) ~keys ~agg_keys ~item ~presence ~out names) rows
  | Op.NestSum { input; keys; agg_keys; aggs; presence }, [ (names, rows) ] ->
    unary (K.nest_sum ~ids:(Op.ids input) ~keys ~agg_keys ~aggs ~presence names) rows
  | Op.Dedup _, [ (names, rows) ] -> unary (K.dedup names) rows
  | Op.UnionAll _, [ (names, (l, ls)); (rnames, r) ] ->
    (* the right side takes the left side's columns, as they are *)
    let _, (r, rs) = unary (K.align names rnames) r in
    (names, (Array.append l r, Array.append ls rs))
  | Op.BagToDict _, [ rows ] -> rows
  | op, _ -> invalid_arg ("Local_eval: arity of " ^ Op.name op)

let eval env op =
  let names, (rows, _) = sized env op in
  (names, rows)

(** Evaluate a plan and package the result rows as a bag, as the executor
    stores a result ({!Kernel.pack}). *)
let eval_to_bag (env : env) (op : Op.t) : V.t =
  let names, rows = sized env op in
  let rows, _ = snd (K.pack names) rows in
  V.Bag (List.map (fun (r : Row.t) -> r.(0)) (Array.to_list rows))
