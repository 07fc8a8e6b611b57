(** Per-partition row code: one kernel per plan operator, run by the
    single-node interpreter on its one partition and by the distributed
    executor in each pool task. A kernel returns its rows with their
    {!Row.byte_size} sum, derived from the size model's additivity where
    that saves walking rows. Each call compiles its expressions afresh and
    gives the rows it builds one shared schema per input schema. *)

module V = Nrc.Value
module S = Sexpr

type sized = Row.t array * int

(* the key hash's fold, shared with the nest kernels' probe *)
let hash_step acc v = (acc * 31) + V.hash v

(* [land max_int], not [abs]: [abs min_int = min_int], whose [mod n] is
   negative and would index a partition array out of bounds. *)
let hash_key (kv : V.t list) = List.fold_left hash_step 17 kv land max_int

(* [Value.equal], trying physical equality and the common scalars first:
   rows unnested from one parent share its key values physically *)
let key_equal (a : V.t) (b : V.t) =
  a == b
  ||
  match a, b with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | _ -> V.equal a b

module KeyTbl = Hashtbl.Make (struct
  type t = V.t list

  (* single pass over both lists: this runs once per probed row on the
     join hot path, so no [List.length] pre-walks *)
  let equal a b =
    let rec go a b =
      match a, b with
      | [], [] -> true
      | x :: a, y :: b -> key_equal x y && go a b
      | _, _ -> false
    in
    go a b

  let hash = hash_key
end)

let compile_keys keys =
  let fs = List.map S.compile keys in
  fun row -> List.map (fun f -> f row) fs

(* Consecutive rows often share column values physically — an unnest
   repeats its parent's values in every output row — so a slot holding
   the very value the previous row held there reuses its size instead of
   walking it again. Exact, since a size is a pure function of the value;
   the memo lives only as long as the sizer and allocates only when a
   wider row arrives. *)
let vals_sizer () =
  let prev = ref [||] and sizes = ref [||] in
  fun (vals : V.t array) ->
    let n = Array.length vals in
    if Array.length !sizes < n then begin
      let grown = Array.make n 0 in
      Array.blit !sizes 0 grown 0 (Array.length !sizes);
      sizes := grown
    end;
    let pv = !prev and sizes = !sizes in
    let m = Array.length pv in
    let total = ref 0 in
    for i = 0 to n - 1 do
      let v = vals.(i) in
      if i >= m || pv.(i) != v then sizes.(i) <- Row.column_bytes v;
      total := !total + sizes.(i)
    done;
    prev := vals;
    !total

let row_sizer () =
  let size = vals_sizer () in
  fun (row : Row.t) -> size row.vals

let sized rows : sized =
  let size = row_sizer () in
  (rows, Array.fold_left (fun acc r -> acc + size r) 0 rows)

(* [vals] plus one trailing value *)
let snoc vals v =
  let m = Array.length vals in
  let out = Array.make (m + 1) v in
  Array.blit vals 0 out 0 m;
  out

(* rows built one per input element, in order *)
let map_rows f a = Row.array_init Row.empty (Array.length a) (fun i -> f a.(i))

let scan ~binder items =
  let names = [| binder |] in
  sized (map_rows (fun v -> Row.make names [| v |]) items)

let add_index ~col id (rows : Row.t array) =
  let names = Row.by_schema (fun names -> snoc names col) in
  Row.array_init Row.empty (Array.length rows) (fun i ->
      let row = rows.(i) in
      Row.make (names row) (snoc row.vals (V.Int (id i))))

(* ------------------------------------------------------------------ *)
(* Joins *)

type index = Row.t list ref KeyTbl.t

(* filled back to front, so each key's rows come out in build order *)
let index rkey (rows : Row.t array) : index =
  let key = compile_keys rkey in
  let tbl = KeyTbl.create 64 in
  for i = Array.length rows - 1 downto 0 do
    let row = rows.(i) in
    let kv = key row in
    if not (List.exists V.is_null kv) then begin
      match KeyTbl.find_opt tbl kv with
      | Some cell -> cell := row :: !cell
      | None -> KeyTbl.add tbl kv (ref [ row ])
    end
  done;
  tbl

let prober ~lkey ~kind ~rcols (index : index) =
  let key = compile_keys lkey in
  let miss =
    match kind with
    | Op.Inner -> []
    | Op.LeftOuter ->
      let names = Array.of_list rcols in
      [ Row.make names (Array.make (Array.length names) V.Null) ]
  in
  fun lrow ->
    let kv = key lrow in
    if List.exists V.is_null kv then miss
    else match KeyTbl.find_opt index kv with Some cell -> !cell | None -> miss

(* the joined schema is derived once per pair of side schemas *)
let joiner () =
  let names =
    Row.by_schema (fun lnames -> Row.by_schema (fun rnames -> Array.append lnames rnames))
  in
  fun (l : Row.t) (r : Row.t) -> Row.make (names l r) (Array.append l.vals r.vals)

(* a joined row's size is the sum of its sides', so each left row is
   sized once *)
let join ~lkey ~kind ~rcols index (lrows : Row.t array) : sized =
  let probe = prober ~lkey ~kind ~rcols index and joined = joiner () in
  let out = ref [] and bytes = ref 0 in
  let lsize = row_sizer () and rsize = row_sizer () in
  Array.iter
    (fun lrow ->
      match probe lrow with
      | [] -> ()
      | rrows ->
        let lb = lsize lrow in
        List.iter
          (fun rrow ->
            out := joined lrow rrow :: !out;
            bytes := !bytes + lb + rsize rrow)
          rrows)
    lrows;
  (Row.array_of_list Row.empty (List.rev !out), !bytes)

let cogroup ~lkey ~kind ~rcols ~keys ~item ~presence ~out index
    (lrows : Row.t array) : sized =
  let probe = prober ~lkey ~kind ~rcols index and joined = joiner () in
  let present = S.compile_pred presence and item = S.compile item in
  let key = Array.of_list (List.map (fun (_, e) -> S.compile e) keys) in
  let names = snoc (Array.of_list (List.map fst keys)) out in
  sized
    (Row.array_of_list Row.empty
       (List.filter_map
          (fun lrow ->
            match probe lrow with
            | [] -> None
            | rrows ->
              let items =
                List.filter_map
                  (fun rrow ->
                    let jrow = joined lrow rrow in
                    if present jrow then Some (item jrow) else None)
                  rrows
              in
              Some (Row.make names (snoc (Array.map (fun f -> f lrow) key) (V.Bag items))))
          (Array.to_list lrows)))

(* every left row meets every right row *)
let product ((lrows, lbytes) : sized) ((rrows, rbytes) : sized) : sized =
  let joined = joiner () in
  let nl = Array.length lrows and nr = Array.length rrows in
  ( Row.array_init Row.empty (nl * nr) (fun i -> joined lrows.(i / nr) rrows.(i mod nr)),
    (nr * lbytes) + (nl * rbytes) )

(* ------------------------------------------------------------------ *)
(* Row-wise operators *)

let select p rows =
  let p = S.compile_pred p in
  sized (Row.array_of_list Row.empty (List.filter p (Array.to_list rows)))

let project fields rows =
  let names = Array.of_list (List.map fst fields) in
  let fs = Array.of_list (List.map (fun (_, e) -> S.compile e) fields) in
  sized (map_rows (fun row -> Row.make names (Array.map (fun f -> f row) fs)) rows)

(* the first field [attr] removed *)
let rec remove_field attr = function
  | [] -> []
  | (n, _) :: rest when String.equal n attr -> rest
  | f :: rest -> f :: remove_field attr rest

(* Per input schema: the parent's values once the consumed bag attribute
   is dropped from the source column of an unnest, and the output schema.
   Deeper paths keep it (rare, and dropping is only an optimization). *)
let unnest_schema ~path ~binder ~drop names =
  let slot = match path with col :: _ when drop -> Row.slot names col | _ -> None in
  let parent, names =
    match slot, path with
    | Some i, [ _ ] ->
      let without a =
        Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1))
      in
      (without, without names)
    | Some i, [ _; attr ] ->
      ( (fun vals ->
          match vals.(i) with
          | V.Tuple fields ->
            let vals = Array.copy vals in
            vals.(i) <- V.Tuple (remove_field attr fields);
            vals
          | _ -> vals),
        names )
    | _ -> (Fun.id, names)
  in
  (parent, snoc names binder)

(* an output row is its parent plus one column, so the parent is sized
   once per input row, not once per item *)
let unnest ~path ~binder ~outer ~drop (rows : Row.t array) : sized =
  let bag = S.compile (S.Col path) in
  let schema = Row.by_schema (unnest_schema ~path ~binder ~drop) in
  let bytes = ref 0 in
  let size = vals_sizer () in
  let out =
    List.concat_map
      (fun (row : Row.t) ->
        let items = V.bag_items (bag row) in
        let parent, names = schema row in
        let pvals = parent row.vals in
        match (match items with [] when outer -> [ V.Null ] | items -> items) with
        | [] -> []
        | items ->
          let pbytes = size pvals + 8 in
          List.map
            (fun v ->
              bytes := !bytes + pbytes + V.byte_size v;
              Row.make names (snoc pvals v))
            items)
      (Array.to_list rows)
  in
  (Row.array_of_list Row.empty out, !bytes)

module RowTbl = Hashtbl.Make (struct
  type t = Row.t

  let equal (a : t) (b : t) =
    Row.same_schema a.names b.names && Array.for_all2 V.equal a.vals b.vals

  let hash (r : t) = Array.fold_left (fun acc v -> (acc * 31) + V.hash v) 17 r.vals
end)

(* the first of equal rows (same columns in order, equal values) stays *)
let dedup rows =
  let seen = RowTbl.create 64 in
  sized
    (Row.array_of_list Row.empty
       (List.filter
          (fun row ->
            if RowTbl.mem seen row then false
            else (
              RowTbl.add seen row ();
              true))
          (Array.to_list rows)))

(* the values of the columns [names] in order, missing ones Null *)
let picker names =
  let slots = Row.by_schema (fun src -> Array.map (Row.slot src) names) in
  fun (row : Row.t) ->
    Array.map (function Some i -> row.vals.(i) | None -> V.Null) (slots row)

let align cols rows =
  let names = Array.of_list cols in
  let pick = picker names in
  sized (map_rows (fun row -> Row.make names (pick row)) rows)

let values cols (rows : Row.t array) =
  let map f = Row.array_init V.Null (Array.length rows) (fun i -> f rows.(i)) in
  match cols with
  | [ "item" ] -> map (S.compile (S.col "item"))
  | _ ->
    let pick = picker (Array.of_list cols) in
    map (fun row -> V.Tuple (List.combine cols (Array.to_list (pick row))))

let split_by_keys keys hk ((rows, bytes) : sized) : sized * sized =
  let key = compile_keys keys in
  let light, heavy =
    List.partition (fun row -> not (KeyTbl.mem hk (key row))) (Array.to_list rows)
  in
  let heavy, hbytes = sized (Row.array_of_list Row.empty heavy) in
  ((Row.array_of_list Row.empty light, bytes - hbytes), (heavy, hbytes))

(* ------------------------------------------------------------------ *)
(* Nest operators *)

(* A group's [vals] is its output row: G-keys, aggregation keys (Null in
   a G-group's placeholder), aggregates. Tables hash a group by [hash] and
   compare its key slots only, so one probe, refilled per row, finds any. *)
type group = {
  mutable hash : int; (* rewritten per row in the probe only *)
  vals : V.t array;
  mutable items : V.t list; (* a bag's items, the newest first *)
  mutable subs : group list; (* a G-group's aggregation groups, the newest first *)
}

(* top-level, so that a comparison allocates no closure *)
let rec same_keys a b i = i < 0 || (key_equal a.(i) b.(i) && same_keys a b (i - 1))

module Groups (W : sig val width : int end) = Hashtbl.Make (struct
  type t = group

  let equal a b = same_keys a.vals b.vals (W.width - 1)
  let hash g = g.hash
end)

(* The one grouping pass of both nest operators: [fold] adds a present row
   to its group in row order, [close] finishes the aggregate slots from
   [first_agg] on. A G-group with no present row emits its placeholder
   unless the grouping is global; a global plain nest over no present rows
   emits its aggregate over nothing only when [global_empty]. *)
let nest ~keys ~agg_keys ~presence ~aggs ~empty ~(fold : group -> int -> Row.t -> unit)
    ~(close : group -> int -> unit) ~global_empty (rows : Row.t array) =
  let key = Array.of_list (List.map (fun (_, e) -> S.compile e) (keys @ agg_keys))
  and present = S.compile_pred presence in
  let names = Array.of_list (List.map fst keys @ List.map fst agg_keys @ aggs) in
  let nk = List.length keys and first_agg = Array.length key in
  let module G = Groups (struct let width = nk end) in
  let module A = Groups (struct let width = first_agg end) in
  let gtbl = G.create 64 and atbl = A.create 64 in
  let probe = { hash = 0; vals = Array.make first_agg V.Null; items = []; subs = [] } in
  let fresh width hash =
    let vals = Array.make (Array.length names) empty in
    Array.blit probe.vals 0 vals 0 width;
    Array.fill vals width (first_agg - width) V.Null;
    { hash; vals; items = []; subs = [] }
  in
  let groups = ref [] and any_present = ref false in
  let g_group hash =
    probe.hash <- hash;
    match G.find_opt gtbl probe with
    | Some g -> g
    | None ->
      let g = fresh nk hash in
      G.add gtbl g g;
      groups := g :: !groups;
      g
  in
  (* the keys [lo, hi) of [row] into the probe, continuing the hash fold *)
  let fill row lo hi h =
    let h = ref h in
    for i = lo to hi - 1 do
      let v = key.(i) row in
      probe.vals.(i) <- v;
      h := hash_step !h v
    done;
    !h
  in
  Array.iter
    (fun row ->
      let gfold = fill row 0 nk 17 in
      let gh = gfold land max_int in
      if not (present row) then ignore (g_group gh)
      else begin
        any_present := true;
        if first_agg = nk then fold (g_group gh) first_agg row
        else begin
          probe.hash <- fill row nk first_agg gfold land max_int;
          match A.find_opt atbl probe with
          | Some g -> fold g first_agg row
          | None ->
            let g = fresh first_agg probe.hash in
            A.add atbl g g;
            let parent = g_group gh in
            parent.subs <- g :: parent.subs;
            fold g first_agg row
        end
      end)
    rows;
  let global = nk = 0 and any_present = !any_present in
  let emit g = close g first_agg; Row.make names g.vals in
  List.concat_map
    (fun g ->
      match g.subs with
      | [] when first_agg > nk -> if global then [] else [ emit g ]
      | [] -> if global && not (global_empty || any_present) then [] else [ emit g ]
      | subs -> List.map emit subs)
    !groups
  |> Row.array_of_list Row.empty |> sized

let nest_bag ~keys ~agg_keys ~item ~presence ~out rows =
  let item = S.compile item in
  nest ~keys ~agg_keys ~presence ~aggs:[ out ] ~empty:(V.Bag []) ~global_empty:true rows
    ~fold:(fun g _ row -> g.items <- item row :: g.items)
    ~close:(fun g i -> match g.items with [] -> () | items -> g.vals.(i) <- V.Bag (List.rev items))

(* Null aggregands are skipped (contribute 0) *)
let nest_sum ~keys ~agg_keys ~aggs ~presence rows =
  let values = Array.of_list (List.map (fun (_, e) -> S.compile e) aggs) in
  nest ~keys ~agg_keys ~presence ~aggs:(List.map fst aggs) ~empty:(V.Int 0)
    ~global_empty:false rows ~close:(fun _ _ -> ())
    ~fold:(fun g first row ->
      for j = 0 to Array.length values - 1 do
        match values.(j) row with
        | V.Null -> ()
        | v -> g.vals.(first + j) <- Nrc.Eval.add_values g.vals.(first + j) v
      done)
