(** Value shredding (Section 4): convert nested values to their shredded
    representation — a flat top bag plus one flat dictionary dataset per
    nesting level. The input loader of the shredded route shreds straight
    onto the cluster's partitions, in parallel; {!shred_env} reads what it
    loads on one partition. {!Unshred.query} rebuilds the nested bags. *)

module T = Nrc.Types
module V = Nrc.Value

open Shred_type

(* ------------------------------------------------------------------ *)
(* One input's type, resolved once: per type level, its fields in type
   order and which of them are bags, and per bag its dictionary and label
   site, so the walks over the values derive nothing per item. *)

type level = {
  where : string; (* the input's name and the level's path, for errors *)
  tuple : bool; (* items at this level must be tuples *)
  names : string array; (* the tuple's fields, in type order *)
  bags : bag option array; (* per field: the bag it holds, if any *)
  flat : bool; (* no field is a bag *)
}

and bag = {
  bag_path : string list;
  dict : int; (* the dictionary's position among the input's, pre-order *)
  inner : level;
  mutable first : int; (* the path's first label, 0 until counted *)
  mutable site : int; (* -1 until registered *)
}

let rec resolve_level next base path (ty : T.t) : level =
  let where = String.concat "." (base :: path) in
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
          bags.(k) <-
            Some
              { bag_path; dict; inner = resolve_level next base bag_path inner_ty;
                first = 0; site = -1 }
        | _ -> ())
      fields;
    { where; tuple = true; names = Array.map fst fields; bags;
      flat = Array.for_all Option.is_none bags }
  | _ -> { where; tuple = false; names = [||]; bags = [||]; flat = true }

(* a level's bags and theirs, in pre-order: each at its [dict] *)
let rec bags_of lv =
  List.concat_map (function None -> [] | Some b -> b :: bags_of b.inner) (Array.to_list lv.bags)

let mismatch lv = Unnest.unsupported "%s: element type mismatch" lv.where

let rec lookup lv name = function
  | (n, v) :: _ when String.equal n name -> v
  | _ :: rest -> lookup lv name rest
  | [] -> Unnest.unsupported "%s: missing attribute %s" lv.where name

(* the items of bag [b]'s value; [Null] is the empty bag *)
let items_of b : V.t -> V.t list = function
  | V.Bag items -> items
  | V.Null -> []
  | _ -> Unnest.unsupported "%s: not a bag" b.inner.where

(* [vfields] holds exactly the level's fields, in type order *)
let rec exact (names : string array) k = function
  | [] -> k = Array.length names
  | (n, _) :: rest -> k < Array.length names && String.equal n names.(k) && exact names (k + 1) rest

(* ------------------------------------------------------------------ *)
(* The counting walk: the bags — one label each — under some items, with
   the errors of the walk that shreds them, and in [first], per
   dictionary, the label of the first bag at its path (0 if none). *)

let rec count first lv (item : V.t) acc =
  match item with
  | V.Tuple vfields when lv.tuple -> count_fields first lv vfields vfields 0 acc
  | _ -> mismatch lv

(* field [k] on, [rest] the value's fields from the one expected there *)
and count_fields first lv vfields rest k acc =
  if k = Array.length lv.names then acc
  else
    let name = lv.names.(k) in
    match rest with
    | (n, v) :: rest when String.equal n name -> count_field first lv vfields rest k acc v
    | _ -> count_field first lv vfields rest k acc (lookup lv name vfields)

and count_field first lv vfields rest k acc v =
  let acc =
    match lv.bags.(k) with
    | None -> acc
    | Some b ->
      if first.(b.dict) = 0 then first.(b.dict) <- acc + 1;
      count_items first b.inner (items_of b v) (acc + 1)
  in
  count_fields first lv vfields rest (k + 1) acc

and count_items first lv items acc =
  match items with [] -> acc | item :: rest -> count_items first lv rest (count first lv item acc)

(* ------------------------------------------------------------------ *)
(* The shredding walk over a chunk of the top items: each bag gets the
   next label, and its items, flattened, go to the partition of its
   label's hash, in walk order, each a one-column row with its size. *)

type chunk = {
  partitions : int;
  top : Plan.Kernel.buf array; (* per partition *)
  dicts : Plan.Kernel.buf array array; (* per dictionary, per partition *)
  mutable label : int; (* the last label's number *)
  mutable bytes : int; (* the fields of the tuple being flattened, sized *)
}

(* every label is [Label { site; args = [Int n] }], of one size *)
let label_bytes = V.byte_size (V.label ~site:0 [ V.Int 0 ])

(* a flattened tuple as a stored row, its fields summing to [bytes] *)
let push rows fields bytes =
  Plan.Kernel.push rows [| V.Tuple fields |] (Plan.Row.column_header + V.tuple_bytes bytes)

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
      let v = lookup lv name vfields in
      flat_field ch lv vfields rest k (name, v) v

and flat_field ch lv vfields rest k field v =
  match lv.bags.(k) with
  | None ->
    ch.bytes <- ch.bytes + V.field_bytes (V.byte_size v);
    field :: flat_fields ch lv vfields rest (k + 1)
  | Some b ->
    let label = shred_items ch b (items_of b v) in
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
      push rows (labelled :: fields) ch.bytes)
    items;
  ch.bytes <- outer;
  label

(* the chunk [items.(lo) .. items.(hi - 1)], its labels numbered from
   [base + 1]: top item [i] goes to partition [i mod partitions] *)
let shred_chunk ~partitions ~dicts top_level (items : V.t array) ~lo ~hi ~base =
  let bufs () = Array.init partitions (fun _ -> Plan.Kernel.buf ()) in
  let ch =
    { partitions; top = bufs (); dicts = Array.init dicts (fun _ -> bufs ()); label = base; bytes = 0 }
  in
  for i = lo to hi - 1 do
    ch.bytes <- 0;
    let fields = flatten ch top_level items.(i) in
    push ch.top.(i mod partitions) fields ch.bytes
  done;
  ch

(* ------------------------------------------------------------------ *)
(* Shredding onto partitions *)

(* One nested input, resolved, to be shredded in chunks: its top bag, its
   dictionaries' bags in pre-order. *)
type input = {
  base : string;
  level : level;
  bags : bag array;
  items : V.t array;
}

let prepare base elem_ty v =
  let level = resolve_level (ref 0) base [] elem_ty in
  { base; level; bags = Array.of_list (bags_of level);
    items = Plan.Row.array_of_list V.Null (V.bag_items v) }

(* [n] items in at most [k] contiguous chunks *)
let chunk_bounds n k =
  let k = max 1 (min n k) in
  List.init k (fun c -> (c * n / k, (c + 1) * n / k))

(* Shred the nested inputs on [pool]: each input in contiguous chunks of
   its top items, a few per lane. A counting walk gives each chunk the
   number of labels before it, so every label, and so every placement, is
   the one a single walk over the whole input gives; it also gives each
   path's first label, so the sites are registered on the calling domain,
   input by input, in the order that walk first meets the paths: every
   bag, empty or [Null], takes the next label where it is met. [registry]
   names the datasets. *)
let shred_on pool ~registry ~partitions (inputs : input list) :
    (string * Exec.Dataset.t) list list =
  let chunks_per_input = if Exec.Pool.size pool = 1 then 1 else 4 * Exec.Pool.size pool in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun inp -> List.map (fun b -> (inp, b)) (chunk_bounds (Array.length inp.items) chunks_per_input))
         inputs)
  in
  let counts =
    Exec.Pool.map pool
      (fun _ (inp, (lo, hi)) ->
        let first = Array.make (Array.length inp.bags) 0 and acc = ref 0 in
        for i = lo to hi - 1 do
          acc := count first inp.level inp.items.(i) !acc
        done;
        (!acc, first))
      tasks
  in
  (* label bases: the counts of the same input's earlier chunks; a path's
     first label is in the first chunk that meets it *)
  let bases = Array.make (Array.length tasks) 0 in
  Array.iteri
    (fun t (inp, _) ->
      if t > 0 && fst tasks.(t - 1) == inp then bases.(t) <- bases.(t - 1) + fst counts.(t - 1);
      Array.iteri
        (fun d local -> if local > 0 && inp.bags.(d).first = 0 then inp.bags.(d).first <- bases.(t) + local)
        (snd counts.(t)))
    tasks;
  List.iter
    (fun inp ->
      List.filter (fun b -> b.first > 0) (Array.to_list inp.bags)
      |> List.sort (fun a b -> compare a.first b.first)
      |> List.iter (fun b -> b.site <- input_site inp.base b.bag_path))
    inputs;
  let chunks =
    Exec.Pool.map pool
      (fun t (inp, (lo, hi)) ->
        shred_chunk ~partitions ~dicts:(Array.length inp.bags) inp.level inp.items ~lo ~hi
          ~base:bases.(t))
      tasks
  in
  (* each input's datasets, every partition its chunks' rows in order *)
  List.map
    (fun inp ->
      let mine = List.filteri (fun t _ -> fst tasks.(t) == inp) (Array.to_list chunks) in
      (* a dictionary is partitioned by its label *)
      let datasets =
        (Registry.name registry (Top inp.base), None, fun (c : chunk) -> c.top)
        :: List.map
             (fun b ->
               ( Registry.name registry (Dict (inp.base, b.bag_path)),
                 Some [ Plan.Sexpr.Col [ "item"; "label" ] ],
                 fun (c : chunk) -> c.dicts.(b.dict) ))
             (Array.to_list inp.bags)
      in
      List.map
        (fun (name, key, of_chunk) ->
          ( name,
            Exec.Dataset.make ~key [| "item" |]
              (Exec.Pool.map pool
                 (fun p () -> Plan.Kernel.contents (List.map (fun c -> (of_chunk c).(p)) mine))
                 (Array.make partitions ())) ))
        datasets)
    inputs

(** Every input as stored datasets on [partitions], on [pool]: a nested
    bag shredded, its top bag round-robin by item and each dictionary by
    its label's {!Plan.Kernel.hash_key}; any other input round-robin,
    under the name of its dataset. *)
let place pool ~partitions (types : (string * T.t) list) (values : (string * V.t) list) :
    (string * Exec.Dataset.t) list =
  let registry = Registry.of_inputs types in
  let nested name =
    match List.assoc_opt name types with
    | Some (T.TBag elem) when not (T.is_flat elem) -> Some elem
    | _ -> None
  in
  let shredded =
    ref
      (shred_on pool ~registry ~partitions
         (List.filter_map (fun (name, v) -> Option.map (fun elem -> prepare name elem v) (nested name)) values))
  in
  List.concat_map
    (fun (name, v) ->
      match nested name, !shredded, List.assoc_opt name types with
      | Some _, datasets :: rest, _ ->
        shredded := rest;
        datasets
      | _, _, Some (T.TBag _) -> [ (Registry.name registry (Top name), Exec.Dataset.of_bag ~partitions v) ]
      | _ -> [ (name, Exec.Dataset.of_bag ~partitions v) ])
    values

let to_bags = List.map (fun (name, d) -> (name, Exec.Dataset.to_bag d))

(** Shred every nested input of an environment into named datasets
    ([COP_F], [COP_D_corders], ...), in input order, each top before its
    dictionaries; flat bags pass through under their [_F] name, other
    inputs as they are. *)
let shred_env (types : (string * T.t) list) (values : (string * V.t) list) :
    (string * V.t) list =
  Exec.Pool.with_pool ~domains:1 (fun pool ->
      List.concat_map
        (fun ((name, _) as input) ->
          match List.assoc_opt name types with
          | Some (T.TBag _) -> to_bags (place pool ~partitions:1 types [ input ])
          | _ -> [ input ])
        values)
