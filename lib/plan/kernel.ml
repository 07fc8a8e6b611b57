(** Per-partition row code: one kernel per plan operator, run by the
    single-node interpreter on its one partition and by the distributed
    executor in each pool task. A kernel takes and returns rows with each
    row's {!Row.byte_size}, derived from the size model's additivity where
    that saves walking rows. Each call compiles its expressions afresh and
    gives the rows it builds one interned schema per input schema. *)

module V = Nrc.Value
module S = Sexpr

type sized = Row.t array * int array

let total (sizes : int array) = Array.fold_left ( + ) 0 sizes

(* the key hash's fold, shared with the key vectors and the nest probe *)
let hash_step acc v = (acc * 31) + V.hash v

(* [land max_int], not [abs]: [abs min_int = min_int], whose [mod n] is
   negative and would index a partition array out of bounds. *)
let hash_key (kv : V.t list) = List.fold_left hash_step 17 kv land max_int
let hash_vec (kv : V.t array) = Array.fold_left hash_step 17 kv land max_int

(* [Value.equal], trying physical equality and the common scalars first:
   rows unnested from one parent share its key values physically *)
let key_equal (a : V.t) (b : V.t) =
  a == b
  ||
  match a, b with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | _ -> V.equal a b

(* top-level, so that a comparison allocates no closure *)
let rec same_slots a b (slots : int array) i =
  i < 0
  || (key_equal a.(slots.(i)) b.(slots.(i)) && same_slots a b slots (i - 1))

let rec same_keys a b i = i < 0 || (key_equal a.(i) b.(i) && same_keys a b (i - 1))

module KeyTbl = Hashtbl.Make (struct
  type t = V.t array

  let equal a b = Array.length a = Array.length b && same_keys a b (Array.length a - 1)
  let hash = hash_vec
end)

let compile_keys keys =
  let vec = S.compile_vec keys in
  fun (row : Row.t) ->
    let rd = vec row in
    let kv = Array.make (Array.length rd) V.Null in
    for i = 0 to Array.length rd - 1 do
      kv.(i) <- rd.(i) row.vals
    done;
    kv

let key_hasher keys =
  let vec = S.compile_vec keys in
  fun (row : Row.t) ->
    let rd = vec row in
    let h = ref 17 in
    for i = 0 to Array.length rd - 1 do
      h := hash_step !h (rd.(i) row.vals)
    done;
    !h land max_int

let sized rows : sized = (rows, Array.map Row.byte_size rows)

(* Rows and their sizes, appended in order into chunks small enough for
   the minor heap (growing from 8 to 256 slots, so a short output stays
   short), so an output of unknown length costs the major heap only its
   final arrays. *)
type buf = {
  mutable full : (Row.t array * int array) list; (* the newest first *)
  mutable rows : Row.t array;
  mutable sizes : int array;
  mutable n : int; (* used in [rows] and [sizes] *)
  mutable total : int;
}

let buf () =
  { full = []; rows = Array.make 8 Row.empty; sizes = Array.make 8 0; n = 0; total = 0 }

let push b row size =
  if b.n = Array.length b.rows then begin
    let next = min 256 (2 * b.n) in
    b.full <- (b.rows, b.sizes) :: b.full;
    b.rows <- Array.make next Row.empty;
    b.sizes <- Array.make next 0;
    b.n <- 0
  end;
  Array.unsafe_set b.rows b.n row;
  Array.unsafe_set b.sizes b.n size;
  b.n <- b.n + 1;
  b.total <- b.total + 1

let contents b : sized =
  let rows = Array.make b.total Row.empty and sizes = Array.make b.total 0 in
  let at = ref b.total in
  let put r s n =
    at := !at - n;
    Array.blit r 0 rows !at n;
    Array.blit s 0 sizes !at n
  in
  put b.rows b.sizes b.n;
  List.iter (fun (r, s) -> put r s (Array.length r)) b.full;
  (rows, sizes)

(* [vals] plus one trailing value *)
let snoc vals v =
  let m = Array.length vals in
  let out = Array.make (m + 1) v in
  Array.blit vals 0 out 0 m;
  out

(* the bytes of the columns [lo, hi) *)
let range_bytes (vals : V.t array) lo hi =
  let s = ref 0 in
  for i = lo to hi - 1 do
    s := !s + Row.column_bytes vals.(i)
  done;
  !s

let columns_bytes vals = range_bytes vals 0 (Array.length vals)

(* The bytes of the first [width] columns of rows sized one after another.
   Consecutive rows often share values physically — groups opened by
   sibling rows hold their common ancestors' values — so a slot holding
   the very value the previous row held there reuses its size instead of
   walking it again. Exact, since a size is a pure function of the value;
   the memo lives as long as the sizer. *)
let prefix_sizer width =
  let prev = Array.make width V.Null and sizes = Array.make width (Row.column_bytes V.Null) in
  fun (vals : V.t array) ->
    let total = ref 0 in
    for i = 0 to width - 1 do
      let v = vals.(i) in
      if prev.(i) != v then begin
        prev.(i) <- v;
        sizes.(i) <- Row.column_bytes v
      end;
      total := !total + sizes.(i)
    done;
    !total

(* The bytes of a row's columns outside the slots [unused], from the row's
   [size], when those columns are flat and so cheap to size; -1 when one
   of them nests. *)
let rec kept_from (unused : int array) (vals : V.t array) i acc =
  if i < 0 then acc
  else
    match vals.(unused.(i)) with
    | V.Bag _ | V.Tuple _ | V.Label _ -> -1
    | v -> kept_from unused vals (i - 1) (acc - Row.column_bytes v)

let kept_bytes unused vals size = kept_from unused vals (Array.length unused - 1) size

(* the bytes of the columns in the slots [used], when they are flat; -1
   when one of them nests *)
let flat_bytes used vals = match kept_bytes used vals 0 with -1 -> -1 | b -> -b

(* Where an output column comes from, in an input schema: a whole input
   column, a tuple of some fields of one (a projection narrowing a
   generator variable), or neither. *)
type source = Column of int | Fields of int * string list | Computed

let source src (e : S.t) =
  match e with
  | S.Col [ c ] -> ( match Row.slot src c with Some s -> Column s | None -> Computed)
  | S.MkTuple ((_, S.Col [ c; _ ]) :: _ as fields) -> (
    let names =
      List.filter_map (function _, S.Col [ c'; f ] when c' = c -> Some f | _ -> None) fields
    in
    match Row.slot src c with
    | Some s
      when List.length names = List.length fields
           && List.length (List.sort_uniq String.compare names) = List.length names ->
      Fields (s, names)
    | _ -> Computed)
  | _ -> Computed

(* An output built from an input schema of [width] slots: the first
   output drawing on a slot carries it — is sized from the input row —
   later ones count as computed, and [unused] lists the slots no output
   carries. *)
type carrying = { sources : source array; unused : int array; any : bool }

let carrying width (sources : source array) =
  let kept = Array.make width false in
  let sources = Array.copy sources in
  for k = 0 to Array.length sources - 1 do
    match sources.(k) with
    | Column s | Fields (s, _) when not kept.(s) -> kept.(s) <- true
    | Column _ | Fields _ -> sources.(k) <- Computed
    | Computed -> ()
  done;
  { sources;
    unused = Array.of_list (List.filter (fun s -> not kept.(s)) (List.init width Fun.id));
    any = Array.exists (function Computed -> false | _ -> true) sources }

let rec remove_first n = function
  | [] -> []
  | m :: rest when String.equal m n -> rest
  | m :: rest -> m :: remove_first n rest

(* the bytes a tuple loses keeping only the first field of each of [names]
   (a field costs 4 bytes plus its value) *)
let rec dropped_bytes names = function
  | [] -> 0
  | (n, _) :: rest when List.mem n names -> dropped_bytes (remove_first n names) rest
  | (_, v) :: rest -> 4 + V.byte_size v + dropped_bytes names rest

(* the size of [out], built from the input row [vals] of [size] as [c]
   describes: the input's kept columns, less the fields a narrowed tuple
   drops, plus the computed outputs *)
let rebuilt_size c vals size (out : V.t array) =
  let kept = if c.any then kept_bytes c.unused vals size else -1 in
  if kept < 0 then columns_bytes out
  else begin
    let s = ref kept in
    Array.iteri
      (fun k v ->
        match c.sources.(k) with
        | Column _ -> ()
        | Fields (slot, names) -> (
          match vals.(slot) with
          | V.Tuple fields -> s := !s - dropped_bytes names fields
          | w -> s := !s + Row.column_bytes v - Row.column_bytes w)
        | Computed -> s := !s + Row.column_bytes v)
      out;
    !s
  end

(* rows built one per input element, in order *)
let map_rows f a = Row.array_init Row.empty (Array.length a) (fun i -> f a.(i))

let scan ~binder items : sized =
  let names = Row.schema [| binder |] in
  (map_rows (fun v -> Row.make names [| v |]) items, Array.map Row.column_bytes items)

(* one column of 8 bytes holding an 8-byte int per row *)
let add_index ~col id ((rows, sizes) : sized) : sized =
  let names = Row.by_schema (fun names -> Row.schema (snoc names col)) in
  ( Row.array_init Row.empty (Array.length rows) (fun i ->
        let row = rows.(i) in
        Row.make (names row) (snoc row.vals (V.Int (id i)))),
    Array.map (fun b -> b + 16) sizes )

(* ------------------------------------------------------------------ *)
(* Joins *)

type index = { rrows : Row.t array; rsizes : int array; tbl : int list ref KeyTbl.t }

(* filled back to front, so each key's rows come out in build order *)
let index rkey ((rows, sizes) : sized) : index =
  let key = compile_keys rkey in
  let tbl = KeyTbl.create 64 in
  for i = Array.length rows - 1 downto 0 do
    let kv = key rows.(i) in
    if not (Array.exists V.is_null kv) then begin
      match KeyTbl.find_opt tbl kv with
      | Some cell -> cell := i :: !cell
      | None -> KeyTbl.add tbl kv (ref [ i ])
    end
  done;
  { rrows = rows; rsizes = sizes; tbl }

(* A left row's matches as positions in the build side, in build order; a
   left-outer miss is the one position -1, the all-null row over [rcols]. *)
type prober = { probe : Row.t -> int list; right : int -> Row.t; right_size : int -> int }

let prober ~lkey ~kind ~rcols (index : index) =
  let key = compile_keys lkey in
  let null_row =
    Row.make (Row.schema (Array.of_list rcols)) (Array.make (List.length rcols) V.Null)
  in
  let null_size = Row.byte_size null_row in
  let miss = match kind with Op.Inner -> [] | Op.LeftOuter -> [ -1 ] in
  { probe =
      (fun lrow ->
        let kv = key lrow in
        if Array.exists V.is_null kv then miss
        else match KeyTbl.find_opt index.tbl kv with Some cell -> !cell | None -> miss);
    right = (fun j -> if j < 0 then null_row else index.rrows.(j));
    right_size = (fun j -> if j < 0 then null_size else index.rsizes.(j)) }

(* the joined schema is derived once per pair of side schemas *)
let joiner () =
  let names =
    Row.by_schema (fun lnames ->
        Row.by_schema (fun rnames -> Row.schema (Array.append lnames rnames)))
  in
  fun (l : Row.t) (r : Row.t) -> Row.make (names l r) (Array.append l.vals r.vals)

(* a joined row's size is the sum of its sides' *)
let join ~lkey ~kind ~rcols index ((lrows, lsizes) : sized) : sized =
  let p = prober ~lkey ~kind ~rcols index and joined = joiner () in
  let out = buf () in
  Array.iteri
    (fun i lrow ->
      List.iter
        (fun j -> push out (joined lrow (p.right j)) (lsizes.(i) + p.right_size j))
        (p.probe lrow))
    lrows;
  contents out

let cogroup ~lkey ~kind ~rcols ~keys ~item ~presence ~out index
    ((lrows, _) : sized) : sized =
  let p = prober ~lkey ~kind ~rcols index and joined = joiner () in
  let present = S.compile_pred presence and item = S.compile item in
  let key = compile_keys (List.map snd keys) in
  let names = Row.schema (snoc (Array.of_list (List.map fst keys)) out) in
  let keys_size = prefix_sizer (List.length keys) in
  let rows = buf () in
  Array.iter
    (fun lrow ->
      match p.probe lrow with
      | [] -> ()
      | js ->
        let items =
          List.filter_map
            (fun j ->
              let jrow = joined lrow (p.right j) in
              if present jrow then Some (item jrow) else None)
            js
        in
        let vals = snoc (key lrow) (V.Bag items) in
        (* a column holding a bag: 8 + 16 + its items *)
        let bag = List.fold_left (fun acc v -> acc + V.byte_size v) 24 items in
        push rows (Row.make names vals) (keys_size vals + bag))
    lrows;
  contents rows

(* every left row meets every right row *)
let product ((lrows, lsizes) : sized) ((rrows, rsizes) : sized) : sized =
  let joined = joiner () in
  let nl = Array.length lrows and nr = Array.length rrows in
  ( Row.array_init Row.empty (nl * nr) (fun i -> joined lrows.(i / nr) rrows.(i mod nr)),
    Array.init (nl * nr) (fun i -> lsizes.(i / nr) + rsizes.(i mod nr)) )

(* ------------------------------------------------------------------ *)
(* Row-wise operators *)

(* the rows [keep] selects, with their sizes *)
let filter keep ((rows, sizes) : sized) : sized =
  let out = buf () in
  Array.iteri (fun i row -> if keep row then push out row sizes.(i)) rows;
  contents out

let select p rows = filter (S.compile_pred p) rows

(* a projected row is sized from its input where it copies whole columns *)
let project fields ((rows, sizes) : sized) : sized =
  let names = Row.schema (Array.of_list (List.map fst fields)) in
  let exprs = List.map snd fields in
  let fs = S.compile_vec exprs in
  let shape =
    Row.by_schema (fun src ->
        carrying (Array.length src) (Array.of_list (List.map (source src) exprs)))
  in
  let out_sizes = Array.make (Array.length rows) 0 in
  ( Row.array_init Row.empty (Array.length rows) (fun i ->
        let row = rows.(i) in
        let rd = fs row in
        let vals = Array.map (fun f -> f row.vals) rd in
        out_sizes.(i) <- rebuilt_size (shape row) row.vals sizes.(i) vals;
        Row.make names vals),
    out_sizes )

(* the first field [attr] removed *)
let rec remove_field attr = function
  | [] -> []
  | (n, _) :: rest when String.equal n attr -> rest
  | f :: rest -> f :: remove_field attr rest

(* What an unnest drops from its input row: nothing, the column in a slot,
   or one attribute of the tuple in a slot. *)
type cut = Keep | Drop_column of int | Drop_field of int * string

(* [a] without its [i]-th element (a row's width: short) *)
let without i a = Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

(* Per input schema: the cut — made when the consumed bag attribute of
   the source column is dropped; deeper paths keep it (rare, and dropping
   is only an optimization) — and the output schema. *)
let unnest_schema ~path ~binder ~drop names =
  let slot = match path with col :: _ when drop -> Row.slot names col | _ -> None in
  match slot, path with
  | Some i, [ _ ] -> (Drop_column i, Row.schema (snoc (without i names) binder))
  | Some i, [ _; attr ] -> (Drop_field (i, attr), Row.schema (snoc names binder))
  | _ -> (Keep, Row.schema (snoc names binder))

(* the parent values once the cut is made *)
let cut_parent cut (vals : V.t array) =
  match cut with
  | Keep -> vals
  | Drop_column i -> without i vals
  | Drop_field (i, attr) -> (
    match vals.(i) with
    | V.Tuple fields ->
      let vals = Array.copy vals in
      vals.(i) <- V.Tuple (remove_field attr fields);
      vals
    | _ -> vals)

(* the bytes the cut removes from [vals], given the consumed bag's size:
   a column costs 8 bytes, a tuple field 4 *)
let cut_bytes cut (vals : V.t array) bag_bytes =
  match cut with
  | Keep -> 0
  | Drop_column _ -> 8 + bag_bytes
  | Drop_field (i, _) -> ( match vals.(i) with V.Tuple _ -> 4 + bag_bytes | _ -> 0)

(* An output row is its parent plus one column. The parent's size is the
   input row's minus what the cut removes — the consumed bag, whose size
   follows from its items, each walked once for its own row. *)
let unnest ~path ~binder ~outer ~drop ((rows, sizes) : sized) : sized =
  let bag = S.compile (S.Col path) in
  let schema = Row.by_schema (unnest_schema ~path ~binder ~drop) in
  let out = buf () in
  let item_bytes = ref (Array.make 16 0) in
  Array.iteri
    (fun r (row : Row.t) ->
      let bagv = bag row in
      let items = V.bag_items bagv in
      let cut, names = schema row in
      let pvals = cut_parent cut row.vals in
      let n = List.length items in
      if Array.length !item_bytes < n then item_bytes := Array.make (2 * n) 0;
      let ib = !item_bytes in
      let bag_bytes =
        match bagv with
        | V.Bag _ ->
          let acc = ref 16 in
          List.iteri
            (fun i v ->
              ib.(i) <- V.byte_size v;
              acc := !acc + ib.(i))
            items;
          !acc
        | v -> V.byte_size v
      in
      let parent = sizes.(r) - cut_bytes cut row.vals bag_bytes + 8 in
      match items with
      | [] ->
        if outer then push out (Row.make names (snoc pvals V.Null)) (parent + V.byte_size V.Null)
      | items ->
        List.iteri (fun i v -> push out (Row.make names (snoc pvals v)) (parent + ib.(i))) items)
    rows;
  contents out

module RowTbl = Hashtbl.Make (struct
  type t = Row.t

  let equal (a : t) (b : t) =
    (a.names == b.names || a.names = b.names) && Array.for_all2 V.equal a.vals b.vals

  let hash (r : t) = Array.fold_left (fun acc v -> (acc * 31) + V.hash v) 17 r.vals
end)

(* the first of equal rows (same columns in order, equal values) stays *)
let dedup rows =
  let seen = RowTbl.create 64 in
  filter
    (fun row ->
      if RowTbl.mem seen row then false
      else (
        RowTbl.add seen row ();
        true))
    rows

(* the values of the columns [names] in order, missing ones Null *)
let picker names =
  let slots = Row.by_schema (fun src -> Array.map (Row.slot src) names) in
  fun (row : Row.t) ->
    Array.map (function Some i -> row.vals.(i) | None -> V.Null) (slots row)

let align cols ((rows, sizes) : sized) : sized =
  let names = Row.schema (Array.of_list cols) in
  let shape =
    Row.by_schema (fun src ->
        let slots = Array.map (Row.slot src) names in
        ( slots,
          carrying (Array.length src)
            (Array.map (function Some s -> Column s | None -> Computed) slots) ))
  in
  let out_sizes = Array.make (Array.length rows) 0 in
  ( Row.array_init Row.empty (Array.length rows) (fun i ->
        let row = rows.(i) in
        let slots, c = shape row in
        let vals = Array.map (function Some s -> row.vals.(s) | None -> V.Null) slots in
        out_sizes.(i) <- rebuilt_size c row.vals sizes.(i) vals;
        Row.make names vals),
    out_sizes )

let values cols (rows : Row.t array) =
  let map f = Row.array_init V.Null (Array.length rows) (fun i -> f rows.(i)) in
  match cols with
  | [ "item" ] -> map (S.compile (S.col "item"))
  | _ ->
    let pick = picker (Array.of_list cols) in
    map (fun row -> V.Tuple (List.combine cols (Array.to_list (pick row))))

let split_by_keys keys hk ((rows, sizes) : sized) : sized * sized =
  let key = compile_keys keys in
  let light = buf () and heavy = buf () in
  Array.iteri
    (fun i row -> push (if KeyTbl.mem hk (key row) then heavy else light) row sizes.(i))
    rows;
  (contents light, contents heavy)

(* ------------------------------------------------------------------ *)
(* Nest operators *)

(* A group's [vals] is its output row: G-keys, aggregation keys (Null in
   a G-group's placeholder), aggregates. Tables hash a group by [hash] and
   compare only the key slots they probe, so one probe, refilled per row,
   finds any. *)
type group = {
  mutable hash : int; (* rewritten per row in the probe only *)
  vals : V.t array;
  mutable items : V.t list; (* a bag's items, the newest first *)
  mutable items_bytes : int; (* their byte sizes, summed *)
  mutable subs : group list; (* a G-group's aggregation groups, the newest first *)
  key_bytes : int; (* the key columns' bytes, -1 until they are walked *)
}

module Groups (P : sig val slots : int array end) = Hashtbl.Make (struct
  type t = group

  let equal a b = same_slots a.vals b.vals P.slots (Array.length P.slots - 1)
  let hash g = g.hash
end)

let slots_where p n = Array.of_list (List.filter p (List.init n Fun.id))

(* The one grouping pass of both nest operators: [fold] adds a present row
   (by its position) to its group in row order, [close] finishes the
   aggregate slots from [first_agg] on and returns their bytes. A G-group
   with no present row emits its placeholder unless the grouping is
   global; a global plain nest over no present rows emits its aggregate
   over nothing only when [global_empty].

   A row is found its group by the G-keys {!Op.probe_keys} picks from
   [ids] — an id standing for the keys it determines — and its
   aggregation keys: only those are read, hashed and compared per row;
   the other G-keys are read when the row opens a group. When the keys
   are whole columns, a group's key bytes are its opening row's size less
   the other columns, if those are flat. *)
let nest ~ids ~keys ~agg_keys ~presence ~aggs ~empty ~global_empty =
  (* derived once per operator; immutable, so every call shares it *)
  let exprs = List.map snd keys @ List.map snd agg_keys in
  let names = Row.schema (Array.of_list (List.map fst keys @ List.map fst agg_keys @ aggs)) in
  let nk = List.length keys in
  let first_agg = nk + List.length agg_keys in
  let probed = Op.probe_keys ids keys in
  let gslots = slots_where (fun i -> probed.(i)) nk
  and later = slots_where (fun i -> not probed.(i)) nk in
  let aslots = Array.append gslots (Array.init (first_agg - nk) (fun i -> nk + i)) in
  let agg_slots = Array.sub aslots (Array.length gslots) (first_agg - nk) in
  fun ~(fold : group -> int -> int -> Row.t -> unit) ~(close : group -> int -> int)
    ((rows, sizes) : sized) : sized ->
  let key = S.compile_vec exprs and present = S.compile_pred presence in
  let module G = Groups (struct let slots = gslots end) in
  let module A = Groups (struct let slots = aslots end) in
  let gtbl = G.create 64 and atbl = A.create 64 in
  let probe =
    { hash = 0; vals = Array.make first_agg V.Null; items = []; items_bytes = 0; subs = [];
      key_bytes = -1 }
  in
  (* per input schema and group width: the slots outside the first
     [width] keys, when those are whole, distinct columns *)
  let outside =
    Row.by_schema (fun src ->
        let c = carrying (Array.length src) (Array.of_list (List.map (source src) exprs)) in
        let for_width width =
          let used = Array.make (Array.length src) false in
          let whole k =
            match c.sources.(k) with Column s -> used.(s) <- true; true | _ -> false
          in
          if List.for_all whole (List.init width Fun.id) then
            Some (slots_where (fun s -> not used.(s)) (Array.length src))
          else None
        in
        (for_width nk, for_width first_agg))
  in
  let null_bytes = Row.column_bytes V.Null in
  let fresh width hash r (row : Row.t) =
    let vals = Array.make (Array.length names) empty in
    Array.blit probe.vals 0 vals 0 width;
    Array.fill vals width (first_agg - width) V.Null;
    let key_bytes =
      match (if width = nk then fst else snd) (outside row) with
      | Some unused -> (
        match kept_bytes unused row.vals sizes.(r) with
        | -1 -> -1
        | kept -> kept + ((first_agg - width) * null_bytes))
      | None -> -1
    in
    { hash; vals; items = []; items_bytes = 0; subs = []; key_bytes }
  in
  (* the G-keys no table compares, read into the probe for a new group *)
  let complete rd (row : Row.t) =
    for j = 0 to Array.length later - 1 do
      let i = later.(j) in
      probe.vals.(i) <- rd.(i) row.vals
    done
  in
  let groups = ref [] and any_present = ref false in
  (* The G-group of the probe. [sub] is the aggregation group that opens
     it, if any — such a G-group is never emitted and keys the table by
     [sub]'s values — or the probe itself when [row] opens it. Lookups
     raise rather than allocate an option per row. *)
  let g_group ~sub rd r row hash =
    probe.hash <- hash;
    match G.find gtbl probe with
    | g -> g
    | exception Not_found ->
      let g =
        if sub == probe then begin
          complete rd row;
          fresh nk hash r row
        end
        else { sub with hash; items = []; subs = []; key_bytes = -1 }
      in
      G.add gtbl g g;
      groups := g :: !groups;
      g
  in
  (* the key [slots] of [row] into the probe, continuing the hash fold *)
  let fill rd (row : Row.t) slots h =
    let h = ref h in
    for j = 0 to Array.length slots - 1 do
      let i = slots.(j) in
      let v = rd.(i) row.vals in
      probe.vals.(i) <- v;
      h := hash_step !h v
    done;
    !h
  in
  Array.iteri
    (fun r row ->
      let rd = key row in
      let gfold = fill rd row gslots 17 in
      let gh = gfold land max_int in
      if not (present row) then ignore (g_group ~sub:probe rd r row gh)
      else begin
        any_present := true;
        if first_agg = nk then fold (g_group ~sub:probe rd r row gh) first_agg r row
        else begin
          probe.hash <- fill rd row agg_slots gfold land max_int;
          match A.find atbl probe with
          | g -> fold g first_agg r row
          | exception Not_found ->
            complete rd row;
            let g = fresh first_agg probe.hash r row in
            A.add atbl g g;
            let parent = g_group ~sub:g rd r row gh in
            parent.subs <- g :: parent.subs;
            fold g first_agg r row
        end
      end)
    rows;
  let global = nk = 0 and any_present = !any_present in
  let out = buf () and keys_size = prefix_sizer first_agg in
  let emit g =
    let bytes = close g first_agg in
    let keys = if g.key_bytes >= 0 then g.key_bytes else keys_size g.vals in
    push out (Row.make names g.vals) (keys + bytes)
  in
  List.iter
    (fun g ->
      match g.subs with
      | [] when first_agg > nk -> if not global then emit g
      | [] -> if not (global && not (global_empty || any_present)) then emit g
      | subs -> List.iter emit subs)
    !groups;
  contents out

(* An item that is a tuple of whole, distinct columns of its row is sized
   from those columns (a tuple field costs 4 bytes where a column costs 8)
   when they are flat, else from the row's size minus the columns it
   leaves out, when those are flat; any other item is walked. *)
let item_sizer item sizes =
  let shape =
    match item with
    | S.MkTuple fields ->
      Row.by_schema (fun src ->
          let c =
            carrying (Array.length src)
              (Array.of_list (List.map (fun (_, e) -> source src e) fields))
          in
          let column = function Column s -> Some s | _ -> None in
          if Array.for_all (fun x -> column x <> None) c.sources then
            Some (Array.map (fun x -> Option.get (column x)) c.sources, c.unused)
          else None)
    | _ -> fun _ -> None
  in
  fun r (row : Row.t) v ->
    match shape row with
    | Some (used, unused) ->
      let columns =
        match
          if Array.length used <= Array.length unused then flat_bytes used row.vals else -1
        with
        | -1 -> kept_bytes unused row.vals sizes.(r)
        | walked -> walked
      in
      if columns < 0 then V.byte_size v else 8 - (4 * Array.length used) + columns
    | None -> V.byte_size v

let nest_bag ~ids ~keys ~agg_keys ~item ~presence ~out =
  let nest =
    nest ~ids ~keys ~agg_keys ~presence ~aggs:[ out ] ~empty:(V.Bag []) ~global_empty:true
  in
  fun ((_, sizes) as rows : sized) ->
  let size = item_sizer item sizes and item = S.compile item in
  nest rows
    ~fold:(fun g _ r row ->
      let v = item row in
      g.items <- v :: g.items;
      g.items_bytes <- g.items_bytes + size r row v)
    ~close:(fun g i ->
      (match g.items with [] -> () | items -> g.vals.(i) <- V.Bag (List.rev items));
      (* a column holding a bag: 8 + 16 + its items *)
      24 + g.items_bytes)

(* Null aggregands are skipped (contribute 0) *)
let nest_sum ~ids ~keys ~agg_keys ~aggs ~presence =
  let nest =
    nest ~ids ~keys ~agg_keys ~presence ~aggs:(List.map fst aggs) ~empty:(V.Int 0)
      ~global_empty:false
  in
  fun rows ->
  let values = S.compile_vec (List.map snd aggs) in
  nest rows
    ~close:(fun g first -> range_bytes g.vals first (Array.length g.vals))
    ~fold:(fun g first _ (row : Row.t) ->
      let rd = values row in
      for j = 0 to Array.length rd - 1 do
        match rd.(j) row.vals with
        | V.Null -> ()
        | v -> g.vals.(first + j) <- Nrc.Eval.add_values g.vals.(first + j) v
      done)
