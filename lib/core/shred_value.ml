(** Value shredding and unshredding (Section 4): convert nested values to
    their shredded representation — a flat top bag plus one flat dictionary
    dataset per nesting level — and back. The input loader of the shredded
    route shreds straight onto the cluster's partitions, in parallel;
    {!shred_bag} and {!shred_env} are the same walk on one partition. *)

module T = Nrc.Types
module V = Nrc.Value

open Shred_type

type shredded = {
  top : V.t; (* flat bag *)
  dicts : (string list * V.t) list; (* path -> flat dict bag (label + fields) *)
}

(* ------------------------------------------------------------------ *)
(* One input's type, resolved once: per type level, its fields in type
   order and which of them are bags, and per bag its dictionary and label
   site, so the walk over the values derives nothing per item. *)

type level = {
  path : string list; (* for error messages *)
  tuple : bool; (* items at this level must be tuples *)
  names : string array; (* the tuple's fields, in type order *)
  bags : bag option array; (* per field: the bag it holds, if any *)
  flat : bool; (* no field is a bag *)
}

and bag = {
  bag_path : string list;
  dict : int; (* the dictionary's position among the input's, pre-order *)
  inner : level;
  mutable site : int; (* -1 until the walk first meets the path *)
}

let rec resolve_level next path (ty : T.t) : level =
  match ty with
  | T.TTuple fields ->
    let fields = Array.of_list fields in
    let bags = Array.make (Array.length fields) None in
    Array.iteri
      (fun k (n, ft) ->
        match ft with
        | T.TBag inner_ty ->
          (* the dictionary's number before its inner ones: pre-order *)
          let bag_path = path @ [ n ] and dict = !next in
          incr next;
          bags.(k) <- Some { bag_path; dict; inner = resolve_level next bag_path inner_ty; site = -1 }
        | _ -> ())
      fields;
    { path; tuple = true; names = Array.map fst fields; bags;
      flat = Array.for_all Option.is_none bags }
  | _ -> { path; tuple = false; names = [||]; bags = [||]; flat = true }


let mismatch lv = Unnest.unsupported "shred_bag: element type mismatch at %s" (String.concat "." lv.path)

let rec lookup name = function
  | (n, v) :: _ when String.equal n name -> v
  | _ :: rest -> lookup name rest
  | [] -> Unnest.unsupported "shred_bag: missing attribute %s" name

(* [vfields] holds exactly the level's fields, in type order *)
let rec exact (names : string array) k = function
  | [] -> k = Array.length names
  | (n, _) :: rest -> k < Array.length names && String.equal n names.(k) && exact names (k + 1) rest

(* ------------------------------------------------------------------ *)
(* Label sites are numbered in the order a depth-first walk over the
   values first meets each path: at the first tuple of its parent level.
   This walk visits the values in that order, skipping what holds no
   path still unmet, and stops at the first malformed value, which the
   counting walk reports. *)

let rec met lv =
  Array.for_all (function None -> true | Some b -> b.site >= 0 && met b.inner) lv.bags

let items_or_exit = function V.Bag items -> items | V.Null -> [] | _ -> raise Exit

let rec register base lv (item : V.t) =
  match item with
  | V.Tuple vfields when lv.tuple ->
    Array.iteri
      (fun k bag ->
        let v = match List.assoc_opt lv.names.(k) vfields with Some v -> v | None -> raise Exit in
        match bag with
        | None -> ()
        | Some b ->
          if b.site < 0 then b.site <- input_site base b.bag_path;
          register_items base b.inner (items_or_exit v))
      lv.bags
  | _ -> raise Exit

and register_items base lv = function
  | item :: rest when not (met lv) ->
    register base lv item;
    register_items base lv rest
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The counting walk: the bags — one label each — under some items, with
   the errors of the walk that shreds them. Allocates nothing. *)

let rec count lv (item : V.t) acc =
  match item with
  | V.Tuple vfields when lv.tuple -> count_fields lv vfields vfields 0 acc
  | _ -> mismatch lv

(* field [k] on, [rest] the value's fields from the one expected there *)
and count_fields lv vfields rest k acc =
  if k = Array.length lv.names then acc
  else
    let name = lv.names.(k) in
    match rest with
    | (n, v) :: rest when String.equal n name -> count_field lv vfields rest k acc v
    | _ -> count_field lv vfields rest k acc (lookup name vfields)

and count_field lv vfields rest k acc v =
  let acc =
    match lv.bags.(k) with
    | None -> acc
    | Some b -> count_items b.inner (V.bag_items v) (acc + 1)
  in
  count_fields lv vfields rest (k + 1) acc

and count_items lv items acc =
  match items with [] -> acc | item :: rest -> count_items lv rest (count lv item acc)

(* ------------------------------------------------------------------ *)
(* The shredding walk over a chunk of the top items: each bag gets the
   next label, and its items, flattened, go to the partition of its
   label's hash, in walk order. *)

(* values appended in order, each with its {!Plan.Row.column_bytes} *)
type buf = { mutable vals : V.t array; mutable sizes : int array; mutable n : int }

let buf () = { vals = [||]; sizes = [||]; n = 0 }

let push b v size =
  if b.n = Array.length b.vals then begin
    let m = max 8 (2 * b.n) in
    let vals = Array.make m V.Null and sizes = Array.make m 0 in
    Array.blit b.vals 0 vals 0 b.n;
    Array.blit b.sizes 0 sizes 0 b.n;
    b.vals <- vals;
    b.sizes <- sizes
  end;
  b.vals.(b.n) <- v;
  b.sizes.(b.n) <- size;
  b.n <- b.n + 1

type chunk = {
  partitions : int;
  top : buf array; (* per partition *)
  dicts : buf array array; (* per dictionary, per partition *)
  mutable label : int; (* the last label's number *)
  mutable bytes : int; (* the fields of the tuple being flattened, sized *)
}

(* every label is [Label { site; args = [Int n] }], of one size *)
let label_bytes = V.byte_size (V.label ~site:0 [ V.Int 0 ])

(* a flattened tuple's column, its fields summing to [bytes] *)
let tuple_column bytes = Plan.Row.column_header + V.tuple_bytes bytes

let rec fields_bytes acc = function
  | [] -> acc
  | (_, v) :: rest -> fields_bytes (acc + V.field_bytes (V.byte_size v)) rest

(* the fields of a flattened item, their bytes added to [ch.bytes] *)
let rec flatten ch lv (item : V.t) =
  match item with
  | V.Tuple vfields when lv.tuple ->
    (* a flat level whose tuples hold its fields in order keeps them *)
    if lv.flat && exact lv.names 0 vfields then begin
      ch.bytes <- fields_bytes ch.bytes vfields;
      vfields
    end
    else flat_fields ch lv vfields vfields 0
  | _ -> mismatch lv

and flat_fields ch lv vfields rest k =
  if k = Array.length lv.names then []
  else
    let name = lv.names.(k) in
    match rest with
    | ((n, v) as field) :: rest when String.equal n name -> flat_field ch lv vfields rest k field v
    | _ ->
      let v = lookup name vfields in
      flat_field ch lv vfields rest k (name, v) v

and flat_field ch lv vfields rest k field v =
  match lv.bags.(k) with
  | None ->
    ch.bytes <- ch.bytes + V.field_bytes (V.byte_size v);
    field :: flat_fields ch lv vfields rest (k + 1)
  | Some b ->
    let label = shred_items ch b (V.bag_items v) in
    ch.bytes <- ch.bytes + V.field_bytes label_bytes;
    let field = (lv.names.(k), label) in
    field :: flat_fields ch lv vfields rest (k + 1)

and shred_items ch b items =
  ch.label <- ch.label + 1;
  let label = V.label ~site:b.site [ V.Int ch.label ] in
  let rows = ch.dicts.(b.dict).(Plan.Kernel.hash_key [ label ] mod ch.partitions) in
  let labelled = ("label", label) and outer = ch.bytes in
  List.iter
    (fun item ->
      ch.bytes <- V.field_bytes label_bytes;
      let fields = flatten ch b.inner item in
      push rows (V.Tuple (labelled :: fields)) (tuple_column ch.bytes))
    items;
  ch.bytes <- outer;
  label

(* the chunk [items.(lo) .. items.(hi - 1)], its labels numbered from
   [base + 1]: top item [i] goes to partition [i mod partitions] *)
let shred_chunk ~partitions ~dicts top_level (items : V.t array) ~lo ~hi ~base =
  let ch =
    { partitions; top = Array.init partitions (fun _ -> buf ());
      dicts = Array.init dicts (fun _ -> Array.init partitions (fun _ -> buf ()));
      label = base; bytes = 0 }
  in
  for i = lo to hi - 1 do
    ch.bytes <- 0;
    let fields = flatten ch top_level items.(i) in
    push ch.top.(i mod partitions) (V.Tuple fields) (tuple_column ch.bytes)
  done;
  ch

(* one partition of a stored dataset: the chunks' pieces in chunk order,
   each element its row's one column ["item"], with the size the walk
   gave it *)
let gather (pieces : buf array) : Plan.Kernel.sized =
  let n = Array.fold_left (fun acc b -> acc + b.n) 0 pieces in
  let rows = Array.make n Plan.Row.empty and sizes = Array.make n 0 and at = ref 0 in
  Array.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        rows.(!at) <- [| b.vals.(i) |];
        sizes.(!at) <- b.sizes.(i);
        incr at
      done)
    pieces;
  (rows, sizes)

(* ------------------------------------------------------------------ *)
(* Shredding onto partitions *)

(* One nested input, resolved and its sites registered, to be shredded in
   chunks: its top bag, its dictionaries in pre-order. *)
type input = {
  base : string;
  level : level;
  paths : string list list;
  items : V.t array;
}

let prepare base elem_ty v =
  let level = resolve_level (ref 0) [] elem_ty and items = V.bag_items v in
  (try register_items base level items with Exit -> ());
  { base; level; paths = dict_paths elem_ty; items = Plan.Row.array_of_list V.Null items }

(* [n] items in at most [k] contiguous chunks *)
let chunk_bounds n k =
  let k = max 1 (min n k) in
  Array.init k (fun c -> (c * n / k, (c + 1) * n / k))

(* Shred the nested inputs on [pool]: each input in contiguous chunks of
   its top items, a few per lane; a counting walk gives each chunk the
   number of labels before it, so every label, and so every placement, is
   the one a single walk over the whole input gives. [registry] names the
   datasets. *)
let shred_on pool ~registry ~partitions (inputs : input list) :
    (string * Exec.Dataset.t) list list =
  let chunks_per_input = if Exec.Pool.size pool = 1 then 1 else 4 * Exec.Pool.size pool in
  let bounds = List.map (fun inp -> chunk_bounds (Array.length inp.items) chunks_per_input) inputs in
  let tasks =
    Array.of_list
      (List.concat
         (List.map2 (fun inp b -> Array.to_list (Array.map (fun b -> (inp, b)) b)) inputs bounds))
  in
  let counts =
    Exec.Pool.map pool
      (fun _ (inp, (lo, hi)) ->
        let acc = ref 0 in
        for i = lo to hi - 1 do
          acc := count inp.level inp.items.(i) !acc
        done;
        !acc)
      tasks
  in
  (* label bases: the counts of the same input's earlier chunks *)
  let bases = Array.make (Array.length tasks) 0 in
  Array.iteri
    (fun t (inp, _) ->
      if t > 0 && fst tasks.(t - 1) == inp then bases.(t) <- bases.(t - 1) + counts.(t - 1))
    tasks;
  let chunks =
    Exec.Pool.map pool
      (fun t (inp, (lo, hi)) ->
        shred_chunk ~partitions ~dicts:(List.length inp.paths) inp.level inp.items ~lo ~hi
          ~base:bases.(t))
      tasks
  in
  (* each input's datasets, every partition gathered from its chunks *)
  let first = ref 0 in
  List.map2
    (fun inp bounds ->
      let mine = Array.sub chunks !first (Array.length bounds) in
      first := !first + Array.length bounds;
      (* a dictionary is partitioned by its label *)
      let datasets =
        (Registry.name registry (Top inp.base), None, fun (c : chunk) -> c.top)
        :: List.mapi
             (fun d path ->
               ( Registry.name registry (Dict (inp.base, path)),
                 Some [ Plan.Sexpr.Col [ "item"; "label" ] ],
                 fun (c : chunk) -> c.dicts.(d) ))
             inp.paths
      in
      List.map
        (fun (name, key, of_chunk) ->
          ( name,
            Exec.Dataset.make ~key [| "item" |]
              (Exec.Pool.map pool
                 (fun p () -> gather (Array.map (fun c -> (of_chunk c).(p)) mine))
                 (Array.make partitions ())) ))
        datasets)
    inputs bounds

let nested types name =
  match List.assoc_opt name types with
  | Some (T.TBag elem) when not (T.is_flat elem) -> Some elem
  | _ -> None

(** Shred every nested input onto [partitions], on [pool]: its top bag
    round-robin by item, each dictionary by its label's
    {!Plan.Kernel.hash_key}. Label sites are registered for all inputs,
    in input order, before any is shredded. Other inputs come back as
    [None], in place, under the name of their dataset. *)
let place pool ~partitions (types : (string * T.t) list) (values : (string * V.t) list) :
    (string * V.t * (string * Exec.Dataset.t) list option) list =
  let registry = Registry.of_inputs types in
  let prepared =
    List.map
      (fun (name, v) -> (name, v, Option.map (fun elem -> prepare name elem v) (nested types name)))
      values
  in
  let shredded =
    ref (shred_on pool ~registry ~partitions (List.filter_map (fun (_, _, i) -> i) prepared))
  in
  List.map
    (fun (name, v, inp) ->
      match inp, !shredded, List.assoc_opt name types with
      | Some _, datasets :: rest, _ ->
        shredded := rest;
        (name, v, Some datasets)
      | _, _, Some (T.TBag _) -> (Registry.name registry (Top name), v, None)
      | _ -> (name, v, None))
    prepared

(** Shred one nested bag value of element type [elem_ty], using the label
    sites registered for [base]. Fresh label ids are drawn per call, so two
    shreddings of the same value produce distinct but isomorphic labels. *)
let shred_bag (base : string) (elem_ty : T.t) (v : V.t) : shredded =
  let inp = prepare base elem_ty v in
  let registry = Registry.of_inputs [ (base, T.TBag elem_ty) ] in
  match Exec.Pool.with_pool ~domains:1 (fun pool -> shred_on pool ~registry ~partitions:1 [ inp ]) with
  | [ top :: dicts ] ->
    { top = Exec.Dataset.to_bag (snd top);
      dicts = List.map2 (fun path (_, d) -> (path, Exec.Dataset.to_bag d)) inp.paths dicts }
  | _ -> assert false

(** Shred every nested input of an environment into named datasets
    ([COP_F], [COP_D_corders], ...), in input order, each top before its
    dictionaries; flat inputs pass through under their [_F] name. *)
let shred_env (types : (string * T.t) list) (values : (string * V.t) list) :
    (string * V.t) list =
  Exec.Pool.with_pool ~domains:1 (fun pool -> place pool ~partitions:1 types values)
  |> List.concat_map (fun (name, v, shredded) ->
         match shredded with
         | Some ds -> List.map (fun (name, d) -> (name, Exec.Dataset.to_bag d)) ds
         | None -> [ (name, v) ])

(* ------------------------------------------------------------------ *)
(* Unshredding *)

(** Rebuild a nested bag of element type [elem_ty] from a flat top bag and
    dictionaries indexed by path. Inverse of {!shred_bag} up to label
    identity. *)
let unshred_bag (elem_ty : T.t) (top : V.t)
    (dicts : (string list * V.t) list) : V.t =
  (* index each dictionary by label *)
  let index =
    List.map
      (fun (path, bag) ->
        let tbl : (V.t, V.t list ref) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun row ->
            match row with
            | V.Tuple (("label", l) :: fields) ->
              let cell =
                match Hashtbl.find_opt tbl l with
                | Some c -> c
                | None ->
                  let c = ref [] in
                  Hashtbl.add tbl l c;
                  c
              in
              cell := V.Tuple fields :: !cell
            | _ -> Unnest.unsupported "unshred_bag: malformed dictionary row")
          (V.bag_items bag);
        (path, tbl))
      dicts
  in
  let lookup path label =
    match List.assoc_opt path index with
    | None -> Unnest.unsupported "unshred_bag: no dictionary at %s" (String.concat "." path)
    | Some tbl -> (
      match Hashtbl.find_opt tbl label with
      | Some cell -> List.rev !cell
      | None -> [])
  in
  let rec rebuild_item path (ty : T.t) (item : V.t) : V.t =
    match ty, item with
    | T.TTuple fields, V.Tuple vfields ->
      V.Tuple
        (List.map
           (fun (n, ft) ->
             let fv =
               match List.assoc_opt n vfields with
               | Some x -> x
               | None -> Unnest.unsupported "unshred_bag: missing attribute %s" n
             in
             match ft with
             | T.TBag inner_ty ->
               let sub_path = path @ [ n ] in
               let members = lookup sub_path fv in
               (n, V.Bag (List.map (rebuild_item sub_path inner_ty) members))
             | _ -> (n, fv))
           fields)
    | _, _ ->
      Unnest.unsupported "unshred_bag: element type mismatch at %s" (String.concat "." path)
  in
  V.Bag (List.map (rebuild_item [] elem_ty) (V.bag_items top))
