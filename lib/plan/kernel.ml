(** Per-partition row code: one kernel per plan operator, run by the
    single-node interpreter on its one partition and by the distributed
    executor in each pool task. A kernel returns its rows with their
    {!Row.byte_size} sum, derived from the size model's additivity where
    that saves walking rows. *)

module V = Nrc.Value
module S = Sexpr

type sized = Row.t array * int

(* [land max_int], not [abs]: [abs min_int = min_int], whose [mod n] is
   negative and would index a partition array out of bounds. *)
let hash_key (kv : V.t list) =
  List.fold_left (fun acc v -> (acc * 31) + V.hash v) 17 kv land max_int

module KeyTbl = Hashtbl.Make (struct
  type t = V.t list

  (* single pass over both lists: this runs once per probed row on the
     join hot path, so no [List.length] pre-walks *)
  let equal a b =
    let rec go a b =
      match a, b with
      | [], [] -> true
      | x :: a, y :: b -> V.equal x y && go a b
      | _, _ -> false
    in
    go a b

  let hash = hash_key
end)

let eval_keys row keys = List.map (S.eval row) keys

(* Consecutive rows often share column values physically — an unnest
   repeats its parent's values in every output row — so a column holding
   the very value the previous row held there reuses its size instead of
   walking it again. Exact, since a size is a pure function of the value;
   the memo lives only as long as the sizer. *)
let row_sizer () =
  let prev = ref [] in
  fun (row : Row.t) ->
    let rec go prev = function
      | [] -> ([], 0)
      | (_, v) :: rest ->
        let b, prev =
          match prev with
          | (pv, pb) :: prev when pv == v -> (pb, prev)
          | _ :: prev -> (Row.column_bytes v, prev)
          | [] -> (Row.column_bytes v, [])
        in
        let cells, total = go prev rest in
        ((v, b) :: cells, b + total)
    in
    let cells, total = go !prev row in
    prev := cells;
    total

let sized rows : sized =
  let size = row_sizer () in
  (rows, Array.fold_left (fun acc r -> acc + size r) 0 rows)

(* ------------------------------------------------------------------ *)
(* Joins *)

type index = Row.t list ref KeyTbl.t

let index rkey (rows : Row.t array) : index =
  let tbl = KeyTbl.create 64 in
  Array.iter
    (fun row ->
      let kv = eval_keys row rkey in
      if not (List.exists V.is_null kv) then begin
        match KeyTbl.find_opt tbl kv with
        | Some cell -> cell := row :: !cell
        | None -> KeyTbl.add tbl kv (ref [ row ])
      end)
    rows;
  tbl

let probe ~lkey ~kind ~rcols (index : index) lrow =
  let kv = eval_keys lrow lkey in
  let matches =
    if List.exists V.is_null kv then []
    else
      match KeyTbl.find_opt index kv with
      | Some cell -> List.rev !cell
      | None -> []
  in
  match matches, kind with
  | [], Op.LeftOuter -> [ Row.nulls rcols ]
  | ms, _ -> ms

(* a joined row's size is the sum of its sides', so each left row is
   sized once *)
let join ~lkey ~kind ~rcols index (lrows : Row.t array) : sized =
  let out = ref [] and bytes = ref 0 in
  let lsize = row_sizer () and rsize = row_sizer () in
  Array.iter
    (fun lrow ->
      match probe ~lkey ~kind ~rcols index lrow with
      | [] -> ()
      | rrows ->
        let lb = lsize lrow in
        List.iter
          (fun rrow ->
            out := (lrow @ rrow) :: !out;
            bytes := !bytes + lb + rsize rrow)
          rrows)
    lrows;
  (Array.of_list (List.rev !out), !bytes)

let cogroup ~lkey ~kind ~rcols ~keys ~item ~presence ~out index
    (lrows : Row.t array) : sized =
  sized
    (Array.of_list
       (List.filter_map
          (fun lrow ->
            match probe ~lkey ~kind ~rcols index lrow with
            | [] -> None
            | rrows ->
              let items =
                List.filter_map
                  (fun rrow ->
                    let jrow = lrow @ rrow in
                    if S.eval_pred jrow presence then Some (S.eval jrow item)
                    else None)
                  rrows
              in
              Some
                (List.map (fun (n, e) -> (n, S.eval lrow e)) keys
                @ [ (out, V.Bag items) ]))
          (Array.to_list lrows)))

(* every left row meets every right row *)
let product ((lrows, lbytes) : sized) ((rrows, rbytes) : sized) : sized =
  ( Array.concat
      (Array.to_list
         (Array.map (fun lrow -> Array.map (fun rrow -> lrow @ rrow) rrows) lrows)),
    (Array.length rrows * lbytes) + (Array.length lrows * rbytes) )

(* ------------------------------------------------------------------ *)
(* Row-wise operators *)

let select p rows =
  sized (Array.of_list (List.filter (fun row -> S.eval_pred row p) (Array.to_list rows)))

let project fields rows =
  sized (Array.map (fun row -> List.map (fun (n, e) -> (n, S.eval row e)) fields) rows)

(* remove the consumed bag attribute from the source column of an unnest *)
let drop_path (row : Row.t) = function
  | [ col ] -> List.remove_assoc col row
  | [ col; attr ] -> (
    match List.assoc_opt col row with
    | Some (V.Tuple fields) ->
      Row.add col (V.Tuple (List.remove_assoc attr fields)) row
    | _ -> row)
  | _ -> row (* deeper paths: keep (rare, and dropping is only an optimization) *)

(* an output row is its parent plus one column, so the parent is sized
   once per input row, not once per item *)
let unnest ~path ~binder ~outer ~drop (rows : Row.t array) : sized =
  let bytes = ref 0 in
  let size = row_sizer () in
  let out =
    List.concat_map
      (fun row ->
        let bag = S.eval row (S.Col path) in
        let row = if drop then drop_path row path else row in
        match
          (match V.bag_items bag with [] when outer -> [ V.Null ] | items -> items)
        with
        | [] -> []
        | items ->
          let parent = size row + 8 in
          List.map
            (fun v ->
              bytes := !bytes + parent + V.byte_size v;
              row @ [ (binder, v) ])
            items)
      (Array.to_list rows)
  in
  (Array.of_list out, !bytes)

let dedup rows =
  sized
    (Array.of_list
       (List.map
          (function V.Tuple row -> row | _ -> assert false)
          (V.dedup (Array.to_list (Array.map (fun row -> V.Tuple row) rows)))))

let align cols rows = sized (Array.map (Row.restrict cols) rows)

let split_by_keys keys hk ((rows, bytes) : sized) : sized * sized =
  let light, heavy =
    List.partition
      (fun row -> not (KeyTbl.mem hk (eval_keys row keys)))
      (Array.to_list rows)
  in
  let heavy, hbytes = sized (Array.of_list heavy) in
  ((Array.of_list light, bytes - hbytes), (heavy, hbytes))

(* ------------------------------------------------------------------ *)
(* Nest operators *)

(* groups by evaluated key tuples, the most recently first-seen key first *)
let group_by_keys keys (rows : Row.t list) =
  let tbl = KeyTbl.create 64 in
  List.fold_left
    (fun groups row ->
      let kv = List.map (fun (_, e) -> S.eval row e) keys in
      match KeyTbl.find_opt tbl kv with
      | Some cell ->
        cell := row :: !cell;
        groups
      | None ->
        let cell = ref [ row ] in
        KeyTbl.add tbl kv cell;
        (kv, cell) :: groups)
    [] rows
  |> List.map (fun (kv, cell) -> (kv, List.rev !cell))

let name_values names_exprs vals =
  List.map2 (fun (n, _) v -> (n, v)) names_exprs vals

(* the grouping skeleton shared by both nest operators: per G-group, the
   aggregated row(s) over its present members. A G-group with none emits
   one placeholder row (Null aggregation keys, [empty] aggregates) unless
   the grouping is global; a global plain nest over no present rows emits
   its aggregate over nothing only when [global_empty]. *)
let nest ~keys ~agg_keys ~presence ~(aggregate : Row.t list -> Row.t)
    ~(empty : Row.t) ~global_empty (rows : Row.t array) =
  group_by_keys keys (Array.to_list rows)
  |> List.concat_map (fun (kv, members) ->
         let base = name_values keys kv in
         let present = List.filter (fun r -> S.eval_pred r presence) members in
         match agg_keys, present with
         | [], [] when keys = [] && not global_empty -> []
         | [], _ -> [ base @ aggregate present ]
         | _, [] ->
           if keys = [] then []
           else [ base @ List.map (fun (n, _) -> (n, V.Null)) agg_keys @ empty ]
         | _, _ ->
           group_by_keys agg_keys present
           |> List.map (fun (akv, sub) ->
                  base @ name_values agg_keys akv @ aggregate sub))
  |> Array.of_list |> sized

let nest_bag ~keys ~agg_keys ~item ~presence ~out rows =
  nest ~keys ~agg_keys ~presence rows ~global_empty:true
    ~aggregate:(fun rs -> [ (out, V.Bag (List.map (fun r -> S.eval r item) rs)) ])
    ~empty:[ (out, V.Bag []) ]

(* Null aggregands are skipped (contribute 0) *)
let sum_agg value rows =
  List.fold_left
    (fun acc row ->
      match S.eval row value with
      | V.Null -> acc
      | v -> Nrc.Eval.add_values acc v)
    (V.Int 0) rows

let nest_sum ~keys ~agg_keys ~aggs ~presence rows =
  nest ~keys ~agg_keys ~presence rows ~global_empty:false
    ~aggregate:(fun rs -> List.map (fun (n, e) -> (n, sum_agg e rs)) aggs)
    ~empty:(List.map (fun (n, _) -> (n, V.Int 0)) aggs)
