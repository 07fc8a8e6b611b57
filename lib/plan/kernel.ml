(** Per-partition row code: one kernel per plan operator, run by the
    single-node interpreter on its one partition and by the distributed
    executor in each pool task. A kernel is applied to its input's schema
    once per operator — resolving every column there — and returns its
    output's schema with the function it runs on each partition's rows and
    their {!Row.byte_size}s, derived from the input rows' sizes where that
    saves walking values. Keyed kernels find keys through one {!Key_table}
    of positions. *)

module V = Nrc.Value
module S = Sexpr

type sized = Row.t array * int array
type names = string array

let total (sizes : int array) = Array.fold_left ( + ) 0 sizes

(* the key hash's fold, shared with the key vectors and the nest probe *)
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

(* top-level, so that a comparison allocates no closure *)
let rec same_slots a b (slots : int array) i =
  i < 0
  || (key_equal a.(slots.(i)) b.(slots.(i)) && same_slots a b slots (i - 1))

(* [a.(i) .. a.(i + k - 1)] and [b.(j) .. b.(j + k - 1)] are equal keys *)
let rec same_run (a : V.t array) i (b : V.t array) j k =
  k = 0 || (key_equal a.(i) b.(j) && same_run a (i + 1) b (j + 1) (k - 1))

(* the readers' values over [row], in order *)
let read_all (rd : S.reader array) (row : Row.t) =
  let vals = Array.make (Array.length rd) V.Null in
  for j = 0 to Array.length rd - 1 do
    vals.(j) <- rd.(j) row
  done;
  vals

let hash_run (a : V.t array) off w =
  let h = ref 17 in
  for j = off to off + w - 1 do
    h := hash_step !h a.(j)
  done;
  !h land max_int

(* the key [rd] of [row] into [kb], and its hash *)
let read_key (rd : S.reader array) (kb : V.t array) (row : Row.t) =
  for j = 0 to Array.length rd - 1 do
    kb.(j) <- rd.(j) row
  done;
  hash_run kb 0 (Array.length rd)

let has_null (kb : V.t array) = Array.exists V.is_null kb

let key_hasher keys names =
  let rd = S.compile_vec names keys in
  fun (row : Row.t) ->
    let h = ref 17 in
    for i = 0 to Array.length rd - 1 do
      h := hash_step !h (rd.(i) row)
    done;
    !h land max_int

let sized rows : sized = (rows, Array.map Row.byte_size rows)

(* Rows and their sizes, appended in order into chunks small enough for
   the minor heap (none until the first row, then growing from 8 to 256
   slots, so an empty output allocates nothing and a short one stays
   short), so an output of unknown length costs the major heap only its
   final arrays. *)
type buf = {
  mutable full : (Row.t array * int array) list; (* the newest first *)
  mutable rows : Row.t array;
  mutable sizes : int array;
  mutable n : int; (* used in [rows] and [sizes] *)
  mutable total : int;
}

let buf () = { full = []; rows = [||]; sizes = [||]; n = 0; total = 0 }

let push b row size =
  if b.n = Array.length b.rows then begin
    let next = max 8 (min 256 (2 * b.n)) in
    if b.n > 0 then b.full <- (b.rows, b.sizes) :: b.full;
    b.rows <- Array.make next Row.empty;
    b.sizes <- Array.make next 0;
    b.n <- 0
  end;
  Array.unsafe_set b.rows b.n row;
  Array.unsafe_set b.sizes b.n size;
  b.n <- b.n + 1;
  b.total <- b.total + 1

(* the buffers end to end, filled from the last one's newest chunk back *)
let contents bufs : sized =
  let total = List.fold_left (fun acc b -> acc + b.total) 0 bufs in
  let rows = Array.make total Row.empty and sizes = Array.make total 0 in
  let at = ref total in
  let put r s n =
    at := !at - n;
    Array.blit r 0 rows !at n;
    Array.blit s 0 sizes !at n
  in
  List.iter
    (fun b ->
      put b.rows b.sizes b.n;
      List.iter (fun (r, s) -> put r s (Array.length r)) b.full)
    (List.rev bufs);
  (rows, sizes)

(* [vals] plus one trailing value *)
let snoc vals v =
  let m = Array.length vals in
  let out = Array.make (m + 1) v in
  Array.blit vals 0 out 0 m;
  out

let slots_where p n = Array.of_list (List.filter p (List.init n Fun.id))
let distinct l = List.length (List.sort_uniq compare l) = List.length l

(* ------------------------------------------------------------------ *)
(* The sizer *)

(* Where an output comes from, in an input schema: a whole input column,
   a tuple of some distinct fields of one (a projection narrowing a
   generator variable), at most one per bit of an int, a tuple of whole
   columns, or none of these. *)
type source = Column of int | Fields of int * string list | Columns of int array | Computed

let source slot (e : S.t) =
  let whole = function S.Col [ c ] -> slot c | _ -> None in
  match e with
  | S.Col [ c ] -> ( match slot c with Some s -> Column s | None -> Computed)
  | S.MkTuple ((_, S.Col [ c; _ ]) :: _ as fields) -> (
    let names =
      List.filter_map (function _, S.Col [ c'; f ] when c' = c -> Some f | _ -> None) fields
    in
    match slot c with
    | Some s
      when List.length names = List.length fields
           && List.length names < Sys.int_size
           && distinct names ->
      Fields (s, names)
    | _ -> Computed)
  | S.MkTuple fields when List.for_all (fun (_, e) -> whole e <> None) fields ->
    Columns (Array.of_list (List.map (fun (_, e) -> Option.get (whole e)) fields))
  | _ -> Computed

let source_slots = function
  | Column s | Fields (s, _) -> [ s ]
  | Columns slots -> Array.to_list slots
  | Computed -> []

(* An output vector's sizes from an input schema of [width] slots: the
   first output drawing on a slot carries it (is sized from the input
   row), later ones count as computed. [used] are the carried slots,
   [unused] the rest; [computed] the outputs walked when the carried
   columns are subtracted, [walks] those walked when they are summed,
   and [derived] the carried tuples, by position. *)
type sizer = {
  used : int array;
  unused : int array;
  computed : int array;
  walks : int array;
  derived : (int * source) array;
}

let sizer slot width exprs =
  let carried = Array.make width false in
  let carry src =
    let slots = source_slots src in
    if distinct slots && not (List.exists (fun s -> carried.(s)) slots) then begin
      List.iter (fun s -> carried.(s) <- true) slots;
      src
    end
    else Computed
  in
  let sources = Array.of_list (List.map (fun e -> carry (source slot e)) exprs) in
  let outputs p = slots_where (fun k -> p sources.(k)) (Array.length sources) in
  { used = slots_where (fun s -> carried.(s)) width;
    unused = slots_where (fun s -> not carried.(s)) width;
    computed = outputs (function Computed -> true | _ -> false);
    walks = outputs (function Column _ | Fields _ | Computed -> true | Columns _ -> false);
    derived =
      Array.map (fun k -> (k, sources.(k)))
        (outputs (function Fields _ | Columns _ -> true | _ -> false)) }

let flat = function V.Bag _ | V.Tuple _ | V.Label _ -> false | _ -> true

let rec all_flat (slots : int array) (row : Row.t) i =
  i < 0 || (flat row.(slots.(i)) && all_flat slots row (i - 1))

let rec slots_bytes (slots : int array) (row : Row.t) i acc =
  if i < 0 then acc else slots_bytes slots row (i - 1) (acc + Row.column_bytes row.(slots.(i)))

(* the position of [n] in [names], or -1 *)
let rec name_index n i = function
  | [] -> -1
  | m :: rest -> if String.equal m n then i else name_index n (i + 1) rest

(* the bytes a tuple loses keeping only the first field of each of
   [names], those already met marked in the bits of [met] by position *)
let rec dropped_bytes names met = function
  | [] -> 0
  | (n, v) :: rest ->
    let bit = match name_index n 0 names with -1 -> 0 | i -> 1 lsl i in
    if bit <> 0 && met land bit = 0 then dropped_bytes names (met lor bit) rest
    else V.field_bytes (V.byte_size v) + dropped_bytes names met rest

(* The bytes of the outputs [vals] that their input [row] of [size] gives;
   {!walk_part} walks the rest. The carried columns are [size] less the
   others when those are flat, unless the carried ones are flat and no
   more: then a narrowed tuple is its column less the fields it drops,
   a tuple of whole columns its columns plus its headers. Otherwise the
   carried columns are summed — tuples of whole columns here, the others
   walked — and the result is complemented ([lnot], so negative). *)
let row_part sz (row : Row.t) size (vals : V.t array) =
  let nu = Array.length sz.used and nn = Array.length sz.unused in
  let subtract =
    (not (nu <= nn && all_flat sz.used row (nu - 1))) && all_flat sz.unused row (nn - 1)
  in
  let total = ref (if subtract then size - slots_bytes sz.unused row (nn - 1) 0 else 0) in
  for j = 0 to Array.length sz.derived - 1 do
    match sz.derived.(j) with
    | k, Fields (s, names) when subtract -> (
      match row.(s) with
      | V.Tuple fields -> total := !total - dropped_bytes names 0 fields
      | w -> total := !total + Row.column_bytes vals.(k) - Row.column_bytes w)
    | _, Columns slots ->
      total := !total + Row.tuple_of_columns (Array.length slots);
      if not subtract then total := !total + slots_bytes slots row (Array.length slots - 1) 0
    | _ -> ()
  done;
  if subtract then !total else lnot !total

(* Per output slot, the value last walked there and its column's bytes.
   Consecutive outputs often hold physically the same value in a slot —
   groups opened by sibling rows hold their common ancestors' values — so
   that value is not walked again. Exact, since a size is a pure function
   of the value; one memo serves one partition call. *)
type memo = { prev : V.t array; bytes : int array }

let null_column = Row.column_bytes V.Null and int_column = Row.column_bytes (V.Int 0)
let memo width = { prev = Array.make width V.Null; bytes = Array.make width null_column }

(* [row_part]'s [part] plus the outputs it leaves, walked through [m] *)
let walk_part sz m part (vals : V.t array) =
  let slots = if part >= 0 then sz.computed else sz.walks in
  let total = ref (if part >= 0 then part else lnot part) in
  for j = 0 to Array.length slots - 1 do
    let k = slots.(j) in
    let v = vals.(k) in
    if m.prev.(k) != v then begin
      m.prev.(k) <- v;
      m.bytes.(k) <- Row.column_bytes v
    end;
    total := !total + m.bytes.(k)
  done;
  !total

(* the sum of [Row.column_bytes] over the outputs [vals], built from the
   input [row] of [size] *)
let size sz m row size vals = walk_part sz m (row_part sz row size vals) vals

(* one int column per row *)
let add_index ~col names =
  ( snoc names col,
    fun id ((rows, sizes) : sized) ->
      ( Row.array_init Row.empty (Array.length rows) (fun i -> snoc rows.(i) (V.Int (id i))),
        Array.map (fun b -> b + int_column) sizes ) )

(* ------------------------------------------------------------------ *)
(* Key sets *)

(* Distinct key vectors of [width] values, stored back to back in [keys],
   the [p]-th entered at [p * width]. *)
type key_set = { width : int; mutable keys : V.t array; tbl : Key_table.t }

let empty_keys width = { width; keys = [||]; tbl = Key_table.create () }
let key_count ks = Key_table.length ks.tbl

(* the position of the key [src.(off) ..] of hash [h], entered if new *)
let add_key ks (src : V.t array) off h =
  let w = ks.width and p = Key_table.length ks.tbl in
  match Key_table.find_or_add ks.tbl h (fun q -> same_run src off ks.keys (q * w) w) p with
  | -1 ->
    if (p + 1) * w > Array.length ks.keys then begin
      let keys = Array.make (max (8 * w) (2 * Array.length ks.keys)) V.Null in
      Array.blit ks.keys 0 keys 0 (p * w);
      ks.keys <- keys
    end;
    Array.blit src off ks.keys (p * w) w;
    p
  | q -> q

(* Per partition, a strided sample of at most [sample] rows; a key is
   heavy when it covers at least [threshold] of its partition's sample,
   and at least two rows. *)
let heavy_keys ~sample ~threshold keys names (parts : Row.t array array) =
  let rd = S.compile_vec names keys in
  let w = Array.length rd in
  let heavy = empty_keys w and kb = Array.make w V.Null in
  Array.iter
    (fun part ->
      let n = Array.length part in
      if n > 0 then begin
        let sample_n = min n sample in
        let stride = max 1 (n / sample_n) in
        let seen = empty_keys w and counts = Array.make ((n + stride - 1) / stride) 0 in
        let sampled = ref 0 and i = ref 0 in
        while !i < n do
          let p = add_key seen kb 0 (read_key rd kb part.(!i)) in
          counts.(p) <- counts.(p) + 1;
          incr sampled;
          i := !i + stride
        done;
        let cutoff =
          max 2 (int_of_float (ceil (threshold *. float_of_int !sampled)))
        in
        for p = 0 to key_count seen - 1 do
          if counts.(p) >= cutoff then
            ignore (add_key heavy seen.keys (p * w) (hash_run seen.keys (p * w) w))
        done
      end)
    parts;
  heavy

(* ------------------------------------------------------------------ *)
(* Joins *)

(* The build side: its rows and sizes, each row's key at [row * width] in
   [keys], the table from the non-null keys to the first row holding
   each, and [next], each row's next with the same key, in build order. *)
type index = {
  rows : Row.t array;
  rsizes : int array;
  width : int;
  keys : V.t array;
  next : int array;
  tbl : Key_table.t;
}

let index rkey rnames =
  let rd = S.compile_vec rnames rkey in
  let w = Array.length rd in
  fun ((rows, rsizes) : sized) ->
    let n = Array.length rows in
    let keys = Array.make (n * w) V.Null and kb = Array.make w V.Null in
    let next = Array.make n (-1) and tbl = Key_table.create () in
    let equal p = same_run kb 0 keys (p * w) w in
    (* back to front: each row displaces the next one with its key *)
    for i = n - 1 downto 0 do
      let h = read_key rd kb rows.(i) in
      Array.blit kb 0 keys (i * w) w;
      if not (has_null kb) then next.(i) <- Key_table.push tbl h equal i
    done;
    { rows; rsizes; width = w; keys; next; tbl }

(* A left row's first match in the build side, or -1: a null key matches
   nothing. One probe per call, reading the key into its own buffer. *)
let prober lkey lnames =
  let rd = S.compile_vec lnames lkey in
  let w = Array.length rd in
  fun (ix : index) ->
    let kb = Array.make w V.Null in
    let equal p = same_run kb 0 ix.keys (p * w) w in
    fun (row : Row.t) ->
      let h = read_key rd kb row in
      if has_null kb || w <> ix.width then -1 else Key_table.find ix.tbl h equal

(* a joined row is its sides' values; its size is the sum of theirs *)
let join ~lkey ~kind lnames rnames =
  let prober = prober lkey lnames in
  let null_row = Array.make (Array.length rnames) V.Null in
  let null_size = Row.byte_size null_row in
  ( Array.append lnames rnames,
    fun (ix : index) ((lrows, lsizes) : sized) ->
      let probe = prober ix and out = buf () in
      Array.iteri
        (fun i lrow ->
          match probe lrow with
          | -1 -> (
            match kind with
            | Op.Inner -> ()
            | Op.LeftOuter -> push out (Array.append lrow null_row) (lsizes.(i) + null_size))
          | head ->
            let j = ref head in
            while !j >= 0 do
              push out (Array.append lrow ix.rows.(!j)) (lsizes.(i) + ix.rsizes.(!j));
              j := ix.next.(!j)
            done)
        lrows;
      contents [ out ] )

(* [presence] and [item] read each match's two sides in place: no joined
   row is built. The keys are sized over the left row, the item over the
   right one, where it reads only the right side's columns. *)
let cogroup ~lkey ~kind ~keys ~item ~presence ~out lnames rnames =
  let prober = prober lkey lnames in
  let present = S.compile_pair lnames rnames presence
  and item_sizer =
    let right c = match Row.slot lnames c with Some _ -> None | None -> Row.slot rnames c in
    sizer right (Array.length rnames) [ item ]
  and item = S.compile_pair lnames rnames item in
  let key_exprs = List.map snd keys in
  let key = S.compile_vec lnames key_exprs
  and keys_sizer = sizer (Row.slot lnames) (Array.length lnames) key_exprs in
  let nk = Array.length key in
  let null_row = Array.make (Array.length rnames) V.Null in
  let null_size = Row.byte_size null_row in
  let outer = match kind with Op.LeftOuter -> true | Op.Inner -> false in
  ( snoc (Array.of_list (List.map fst keys)) out,
    fun (ix : index) ((lrows, lsizes) : sized) ->
      let probe = prober ix and side = S.pair () in
      let keys_memo = memo nk and item_memo = memo 1 and one = [| V.Null |] in
      let rows = buf () and bytes = ref 0 in
      let add acc rsize =
        if S.truth (present side) then begin
          let v = item side in
          acc := v :: !acc;
          one.(0) <- v;
          bytes :=
            !bytes + size item_sizer item_memo side.right rsize one - Row.column_header
        end
      in
      Array.iteri
        (fun i lrow ->
          let head = probe lrow in
          if head >= 0 || outer then begin
            side.left <- lrow;
            bytes := 0;
            let items = ref [] in
            if head < 0 then begin
              side.right <- null_row;
              add items null_size
            end
            else begin
              let j = ref head in
              while !j >= 0 do
                side.right <- ix.rows.(!j);
                add items ix.rsizes.(!j);
                j := ix.next.(!j)
              done
            end;
            let items = List.rev !items in
            let vals = Array.make (nk + 1) (V.Bag items) in
            for k = 0 to nk - 1 do
              vals.(k) <- key.(k) lrow
            done;
            push rows vals (size keys_sizer keys_memo lrow lsizes.(i) vals + Row.bag_column !bytes)
          end)
        lrows;
      contents [ rows ] )

(* every left row meets every right row *)
let product lnames rnames =
  ( Array.append lnames rnames,
    fun ((lrows, lsizes) : sized) ((rrows, rsizes) : sized) ->
      let nl = Array.length lrows and nr = Array.length rrows in
      ( Row.array_init Row.empty (nl * nr) (fun i -> Array.append lrows.(i / nr) rrows.(i mod nr)),
        Array.init (nl * nr) (fun i -> lsizes.(i / nr) + rsizes.(i mod nr)) ) )

(* ------------------------------------------------------------------ *)
(* Row-wise operators *)

(* the rows [keep] selects, with their sizes *)
let filter keep ((rows, sizes) : sized) : sized =
  let out = buf () in
  Array.iteri (fun i row -> if keep row then push out row sizes.(i)) rows;
  contents [ out ]

let select p names = (names, filter (S.compile_pred names p))

let project fields names =
  let exprs = List.map snd fields in
  let fs = S.compile_vec names exprs and sz = sizer (Row.slot names) (Array.length names) exprs in
  ( Array.of_list (List.map fst fields),
    fun ((rows, sizes) : sized) ->
      let m = memo (Array.length fs) and out_sizes = Array.make (Array.length rows) 0 in
      ( Row.array_init Row.empty (Array.length rows) (fun i ->
            let row = rows.(i) in
            let vals = read_all fs row in
            out_sizes.(i) <- size sz m row sizes.(i) vals;
            vals),
        out_sizes ) )

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

(* The cut — made when the consumed bag attribute of the source column is
   dropped; deeper paths keep it (rare, and dropping is only an
   optimization) — and the output schema. *)
let unnest_schema ~path ~binder ~drop names =
  let slot = match path with col :: _ when drop -> Row.slot names col | _ -> None in
  match slot, path with
  | Some i, [ _ ] -> (Drop_column i, snoc (without i names) binder)
  | Some i, [ _; attr ] -> (Drop_field (i, attr), snoc names binder)
  | _ -> (Keep, snoc names binder)

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

(* the bytes the cut removes from [vals], given the consumed bag's size *)
let cut_bytes cut (vals : V.t array) bag_bytes =
  match cut with
  | Keep -> 0
  | Drop_column _ -> Row.column_header + bag_bytes
  | Drop_field (i, _) -> ( match vals.(i) with V.Tuple _ -> V.field_bytes bag_bytes | _ -> 0)

(* An output row is its parent plus one column. The parent's size is the
   input row's minus what the cut removes — the consumed bag, whose size
   follows from its items, each walked once for its own row. *)
let unnest ~path ~binder ~outer ~drop names =
  let bag = S.compile names (S.Col path) in
  let cut, out_names = unnest_schema ~path ~binder ~drop names in
  ( out_names,
    fun ((rows, sizes) : sized) ->
      let out = buf () in
      let item_bytes = ref (Array.make 16 0) in
      Array.iteri
        (fun r (row : Row.t) ->
          let bagv = bag row in
          let items = V.bag_items bagv in
          let pvals = cut_parent cut row in
          let n = List.length items in
          if Array.length !item_bytes < n then item_bytes := Array.make (2 * n) 0;
          let ib = !item_bytes in
          let bag_bytes =
            match bagv with
            | V.Bag _ ->
              let acc = ref 0 in
              List.iteri
                (fun i v ->
                  ib.(i) <- V.byte_size v;
                  acc := !acc + ib.(i))
                items;
              V.bag_bytes !acc
            | v -> V.byte_size v
          in
          let parent = sizes.(r) - cut_bytes cut row bag_bytes + Row.column_header in
          match items with
          | [] -> if outer then push out (snoc pvals V.Null) (parent + V.byte_size V.Null)
          | items -> List.iteri (fun i v -> push out (snoc pvals v) (parent + ib.(i))) items)
        rows;
      contents [ out ] )

(* the first of equal rows (equal values, column by column) stays *)
let dedup names =
  ( names,
    fun ((rows, sizes) : sized) ->
      let tbl = Key_table.create () and cur = ref Row.empty in
      let equal p =
        let b = rows.(p) in
        Array.length b = Array.length !cur && same_run !cur 0 b 0 (Array.length b)
      in
      let out = buf () in
      Array.iteri
        (fun i row ->
          cur := row;
          if Key_table.find_or_add tbl (hash_run row 0 (Array.length row)) equal i < 0
          then push out row sizes.(i))
        rows;
      contents [ out ] )

let align cols names =
  let column c = (c, if Row.slot names c = None then S.Const V.Null else S.Col [ c ]) in
  (cols, snd (project (List.map column (Array.to_list cols)) names))

(* A row's single column ["item"] is its element as it is; any other row
   becomes the tuple of its columns, named by them in order, which adds
   the tuple's headers to the columns' ([Row.tuple_of_columns]). A key
   reads the element where it read the row. *)
let pack names =
  match names with
  | [| "item" |] ->
    ((function S.Col ("item" :: _) as k -> Some k | _ -> None), Fun.id)
  | _ ->
    let n = Array.length names and extra = Row.tuple_of_columns (Array.length names) in
    let rec fields (row : Row.t) j = if j = n then [] else (names.(j), row.(j)) :: fields row (j + 1) in
    ( (function S.Col path -> Some (S.Col ("item" :: path)) | _ -> None),
      fun ((rows, sizes) : sized) ->
        ( Row.array_init Row.empty (Array.length rows) (fun i -> [| V.Tuple (fields rows.(i) 0) |]),
          Array.map (fun b -> b + extra) sizes ) )

let split_by_keys keys names =
  let rd = S.compile_vec names keys in
  let w = Array.length rd in
  fun (hk : key_set) ((rows, sizes) : sized) ->
    let kb = Array.make w V.Null in
    let equal p = same_run kb 0 hk.keys (p * w) w in
    let light = buf () and heavy = buf () in
    Array.iteri
      (fun i row ->
        let h = read_key rd kb row in
        let is_heavy = w = hk.width && Key_table.find hk.tbl h equal >= 0 in
        push (if is_heavy then heavy else light) row sizes.(i))
      rows;
    (contents [ light ], contents [ heavy ])

(* ------------------------------------------------------------------ *)
(* Nest operators *)

(* A group's [vals] is its output row: G-keys, aggregation keys (Null in
   a G-group's placeholder), aggregates. [link] chains a G-group's
   aggregation groups by position: in a G-group, its newest one; in an
   aggregation group, the next older one; -1 ends the chain. *)
type group = {
  vals : V.t array;
  mutable items : V.t list; (* a bag's items, the newest first *)
  mutable items_bytes : int; (* their byte sizes, summed *)
  key_part : int; (* its keys' {!row_part}, from the row that opened it *)
  mutable link : int;
  hash : int; (* its shuffle hash, when the pass emits them (below) *)
}

let no_group =
  { vals = Row.empty; items = []; items_bytes = 0; key_part = 0; link = -1; hash = 0 }

(* groups in a growable array, by position *)
type groups = { mutable all : group array; mutable n : int }

let groups () = { all = Array.make 16 no_group; n = 0 }

(* the next group, its position *)
let add_group gs vals key_part hash =
  if gs.n = Array.length gs.all then begin
    let all = Array.make (2 * gs.n) no_group in
    Array.blit gs.all 0 all 0 gs.n;
    gs.all <- all
  end;
  gs.all.(gs.n) <- { vals; items = []; items_bytes = 0; key_part; link = -1; hash };
  gs.n <- gs.n + 1;
  gs.n - 1

(* The nest pass's tables, group stores and probe array: one set per
   domain, under the three rules of kernel.mli's "Borrowed scratch". A
   partition of a few hundred rows grows each table past the minor heap's
   256-word limit, so tables made per call would be garbage allocated
   straight into the major heap. *)
type scratch = {
  gs : groups;
  ags : groups;
  gtbl : Key_table.t;
  atbl : Key_table.t;
  mutable probe : V.t array;
  mutable lent : bool;
}

let new_scratch () =
  { gs = groups (); ags = groups (); gtbl = Key_table.create (); atbl = Key_table.create ();
    probe = [||]; lent = false }

let scratch_key = Domain.DLS.new_key new_scratch

(* a store far larger than [rows] groups need is replaced *)
let reset_groups gs rows =
  if Array.length gs.all > 4 * max 16 rows then gs.all <- Array.make 16 no_group

(* the references a call left, dropped *)
let release s =
  Array.fill s.gs.all 0 s.gs.n no_group;
  Array.fill s.ags.all 0 s.ags.n no_group;
  Array.fill s.probe 0 (Array.length s.probe) V.Null;
  s.gs.n <- 0;
  s.ags.n <- 0;
  s.lent <- false

(* [f] with this domain's scratch, reset for [rows] rows and a probe of
   [width] keys; a call made while it is lent gets a fresh one *)
let with_scratch ~rows ~width f =
  let s = Domain.DLS.get scratch_key in
  let s = if s.lent then new_scratch () else s in
  s.lent <- true;
  reset_groups s.gs rows;
  reset_groups s.ags rows;
  Key_table.reset s.gtbl ~keys:rows;
  Key_table.reset s.atbl ~keys:rows;
  if Array.length s.probe < width then s.probe <- Array.make width V.Null;
  Fun.protect ~finally:(fun () -> release s) (fun () -> f s)

(* How the nest pass hashes a row's G-keys: by its own fold over the keys
   it probes; the same, also emitting each output row's shuffle hash; or
   taking the shuffle hash each row carries in, position by position. *)
type hashing = Own | Emit | Carried of int array

(* The one grouping pass of both nest operators: [fold] adds a present row
   (by its position) to its group in row order, [close] finishes the
   aggregate slots from the first after the keys and returns their bytes.
   A G-group with no present row emits its placeholder unless the
   grouping is global; a global plain nest over no present rows emits its
   aggregate over nothing only when [global_empty].

   A row is found its group by the G-keys {!Op.probe_keys} picks from
   [ids] — an id standing for the keys it determines — and its
   aggregation keys: only those are read, hashed and compared per row;
   the other G-keys are read from the row that opens a group straight into
   its output row, which takes its keys' {!row_part} from that row and
   walks the rest when emitted.

   The shuffle hash of a group is [hash_key] of its G-keys, or of its
   aggregation keys when there are no G-keys. When every G-key is probed,
   the probe's G-key fold is that hash, and with no G-keys the aggregation
   fold is; otherwise [Emit] hashes a G-group's keys once, when it opens,
   through a per-slot memo of the last value's hash.
   With [Carried] hashes, the G-table probes with a row's hash, which equal
   probed keys give equal G-keys and so equal hashes, and the aggregation
   table folds only the aggregation keys onto it, or with no G-keys probes
   with the hash itself. *)
let nest ~ids ~keys ~agg_keys ~presence ~aggs ~empty ~global_empty names =
  let exprs = List.map snd keys @ List.map snd agg_keys in
  let out_names = Array.of_list (List.map fst keys @ List.map fst agg_keys @ aggs) in
  let width = Array.length out_names in
  let nk = List.length keys in
  let first_agg = nk + List.length agg_keys in
  let probed = Op.probe_keys ids keys in
  let gslots = slots_where (fun i -> probed.(i)) nk
  and later = slots_where (fun i -> not probed.(i)) nk in
  let aslots = Array.append gslots (Array.init (first_agg - nk) (fun i -> nk + i)) in
  let agg_slots = Array.sub aslots (Array.length gslots) (first_agg - nk) in
  let key = S.compile_vec names exprs and present = S.compile_pred names presence in
  (* an aggregation group's keys, and a G-group's, Null past the G-keys *)
  let a_sizer = sizer (Row.slot names) (Array.length names) exprs
  and g_sizer =
    sizer (Row.slot names) (Array.length names)
      (List.map snd keys @ List.map (fun _ -> S.Const V.Null) agg_keys)
  in
  ( out_names,
    fun ~(fold : group -> int -> Row.t -> unit) ~(close : group -> int) hashing
      ((rows, sizes) : sized) ->
      with_scratch ~rows:(Array.length rows) ~width:first_agg
      @@ fun { gs; ags; gtbl; atbl; probe; _ } ->
      let g_equal g = same_slots probe gs.all.(g).vals gslots (Array.length gslots - 1)
      and a_equal a = same_slots probe ags.all.(a).vals aslots (Array.length aslots - 1) in
      (* the shuffle hash of a G-group whose output row is [vals], opened
         under the G-key hash [gh]: with unprobed keys, [hash_key] of its
         G-keys, each value's hash kept per slot while the slot holds that
         value physically — groups opened by sibling rows share their
         ancestors' values *)
      let g_hash =
        match hashing with
        | Emit when Array.length later > 0 ->
          let prev = Array.make nk V.Null and hashes = Array.make nk (V.hash V.Null) in
          fun (vals : V.t array) _ ->
            let h = ref 17 in
            for i = 0 to nk - 1 do
              let v = vals.(i) in
              if prev.(i) != v then begin
                prev.(i) <- v;
                hashes.(i) <- V.hash v
              end;
              h := (!h * 31) + hashes.(i)
            done;
            !h land max_int
        | _ -> fun _ gh -> gh
      in
      (* a new group at the probe's first [w] keys, opened by row [r]: its
         output row takes them, the G-keys no table compares read from the
         row and Null up to the aggregates; [h] is its G-key hash for a
         G-group, else its shuffle hash *)
      let fresh s w r h =
        let row = rows.(r) in
        let vals = Array.make width empty in
        Array.blit probe 0 vals 0 w;
        for j = 0 to Array.length later - 1 do
          let i = later.(j) in
          vals.(i) <- key.(i) row
        done;
        Array.fill vals w (first_agg - w) V.Null;
        if w = nk then add_group s vals (row_part g_sizer row sizes.(r) vals) (g_hash vals h)
        else add_group s vals (row_part a_sizer row sizes.(r) vals) h
      in
      (* the key [slots] of [row] into the probe, continuing the hash fold *)
      let fill (row : Row.t) slots h =
        let h = ref h in
        for j = 0 to Array.length slots - 1 do
          let i = slots.(j) in
          let v = key.(i) row in
          probe.(i) <- v;
          h := hash_step !h v
        done;
        !h
      in
      (* the same, keeping a carried hash [h] *)
      let keep (row : Row.t) slots h =
        for j = 0 to Array.length slots - 1 do
          let i = slots.(j) in
          probe.(i) <- key.(i) row
        done;
        h
      in
      (* The G-group of the probe. [sub] is the aggregation group that
         opens it, if any — such a G-group is never emitted and holds
         [sub]'s values — or -1 when row [r] opens it. *)
      let g_group ~sub r hash =
        match Key_table.find_or_add gtbl hash g_equal gs.n with
        | -1 ->
          if sub < 0 then fresh gs nk r hash
          else
            let vals = ags.all.(sub).vals in
            add_group gs vals 0 (g_hash vals hash)
        | g -> g
      in
      let any_present = ref false in
      Array.iteri
        (fun r row ->
          let gfold =
            match hashing with
            | Carried h when nk > 0 -> keep row gslots h.(r)
            | _ -> fill row gslots 17
          in
          let gh = gfold land max_int in
          if not (present row) then ignore (g_group ~sub:(-1) r gh)
          else begin
            any_present := true;
            if first_agg = nk then fold gs.all.(g_group ~sub:(-1) r gh) r row
            else
              let ah =
                match hashing with
                | Carried h when nk = 0 -> keep row agg_slots h.(r)
                | _ -> fill row agg_slots gfold land max_int
              in
              match Key_table.find_or_add atbl ah a_equal ags.n with
              | -1 ->
                let a = fresh ags first_agg r ah in
                let g = gs.all.(g_group ~sub:a r gh) and sub = ags.all.(a) in
                sub.link <- g.link;
                g.link <- a;
                fold sub r row
              | a -> fold ags.all.(a) r row
          end)
        rows;
      let global = nk = 0 and any_present = !any_present in
      (* G-groups the newest first; within one, its aggregation groups the
         newest first *)
      let emits_placeholder =
        if first_agg > nk then not global else not (global && not (global_empty || any_present))
      in
      let count = ref 0 in
      for g = gs.n - 1 downto 0 do
        let a = ref gs.all.(g).link in
        if !a < 0 then (if emits_placeholder then incr count)
        else
          while !a >= 0 do
            incr count;
            a := ags.all.(!a).link
          done
      done;
      let out = Array.make !count Row.empty and out_sizes = Array.make !count 0 in
      let emitting = match hashing with Emit -> true | Own | Carried _ -> false in
      let out_hashes = Array.make (if emitting then !count else 0) 0 in
      let m = memo first_agg and at = ref 0 in
      (* an aggregation group's shuffle hash is its G-group's, if any *)
      let emit sz g hash =
        let bytes = close g in
        let keys = walk_part sz m g.key_part g.vals in
        out.(!at) <- g.vals;
        out_sizes.(!at) <- keys + bytes;
        if emitting then out_hashes.(!at) <- (if nk > 0 then hash else g.hash);
        incr at
      in
      for g = gs.n - 1 downto 0 do
        let hash = gs.all.(g).hash and a = ref gs.all.(g).link in
        if !a < 0 then (if emits_placeholder then emit g_sizer gs.all.(g) hash)
        else
          while !a >= 0 do
            let sub = ags.all.(!a) in
            emit a_sizer sub hash;
            a := sub.link
          done
      done;
      (out, out_sizes, out_hashes) )

let nest_bag ~ids ~keys ~agg_keys ~item ~presence ~out names =
  let out_names, nest =
    nest ~ids ~keys ~agg_keys ~presence ~aggs:[ out ] ~empty:(V.Bag []) ~global_empty:true names
  in
  let sz = sizer (Row.slot names) (Array.length names) [ item ] and item = S.compile names item in
  let first = List.length keys + List.length agg_keys in
  ( out_names,
    fun ((_, sizes) as rows : sized) ->
      let m = memo 1 and one = [| V.Null |] in
      let out, out_sizes, _ =
        nest Own rows
          ~fold:(fun g r row ->
            let v = item row in
            g.items <- v :: g.items;
            one.(0) <- v;
            g.items_bytes <- g.items_bytes + size sz m row sizes.(r) one - Row.column_header)
          ~close:(fun g ->
            (match g.items with [] -> () | items -> g.vals.(first) <- V.Bag (List.rev items));
            Row.bag_column g.items_bytes)
      in
      (out, out_sizes) )

(* Null aggregands are skipped (contribute 0) *)
let sum_pass ~ids ~keys ~agg_keys ~aggs ~presence names =
  let out_names, nest =
    nest ~ids ~keys ~agg_keys ~presence ~aggs:(List.map fst aggs) ~empty:(V.Int 0)
      ~global_empty:false names
  in
  let values = S.compile_vec names (List.map snd aggs) in
  let first = List.length keys + List.length agg_keys in
  let sums = Array.init (Array.length values) (fun j -> first + j) in
  ( out_names,
    nest
      ~close:(fun g -> slots_bytes sums g.vals (Array.length sums - 1) 0)
      ~fold:(fun g _ (row : Row.t) ->
        let vals = g.vals in
        for j = 0 to Array.length values - 1 do
          match values.(j) row with
          | V.Null -> ()
          | v -> vals.(first + j) <- Nrc.Eval.add_values vals.(first + j) v
        done) )

let nest_sum ~ids ~keys ~agg_keys ~aggs ~presence names =
  let out_names, pass = sum_pass ~ids ~keys ~agg_keys ~aggs ~presence names in
  (out_names, fun rows -> let out, sizes, _ = pass Own rows in (out, sizes))

let nest_sum_combine ~ids ~keys ~agg_keys ~aggs ~presence names =
  let out_names, pass = sum_pass ~ids ~keys ~agg_keys ~aggs ~presence names in
  (out_names, fun rows -> let out, sizes, hashes = pass Emit rows in ((out, sizes), hashes))

(* the combine's output holds each key and sum under its own name, and a
   partial row is present exactly when its first aggregation key is set *)
let nest_sum_reduce ~ids ~keys ~agg_keys ~aggs names =
  let cols = List.map (fun (n, _) -> (n, S.Col [ n ])) in
  let presence =
    match agg_keys with [] -> S.Const (V.Bool true) | (n, _) :: _ -> S.Not (S.IsNull (S.Col [ n ]))
  in
  let out_names, pass =
    sum_pass ~ids ~keys:(cols keys) ~agg_keys:(cols agg_keys) ~aggs:(cols aggs) ~presence names
  in
  (out_names, fun hashes rows -> let out, sizes, _ = pass (Carried hashes) rows in (out, sizes))
