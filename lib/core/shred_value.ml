(** Value shredding and unshredding (Section 4): convert nested values to
    their shredded representation — a flat top bag plus one flat dictionary
    dataset per nesting level — and back. Used to prepare inputs for the
    shredded pipeline and as the semantic reference for query shredding
    tests. *)

module T = Nrc.Types
module V = Nrc.Value

open Shred_type

type shredded = {
  top : V.t; (* flat bag *)
  dicts : (string list * V.t) list; (* path -> flat dict bag (label + fields) *)
}

(** Shred one nested bag value of element type [elem_ty], using the label
    sites registered for [base]. Fresh label ids are drawn per call, so two
    shreddings of the same value produce distinct but isomorphic labels. *)
let shred_bag (base : string) (elem_ty : T.t) (v : V.t) : shredded =
  let counter = ref 0 in
  let dicts : (string, V.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let dict_rows path =
    let key = String.concat "/" path in
    match Hashtbl.find_opt dicts key with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace dicts key cell;
      cell
  in
  (* flatten one item at [path]; recursively registers inner bags *)
  let rec flatten_item path (ty : T.t) (item : V.t) : V.t =
    match ty, item with
    | T.TTuple fields, V.Tuple vfields ->
      V.Tuple
        (List.map
           (fun (n, ft) ->
             let fv =
               match List.assoc_opt n vfields with
               | Some x -> x
               | None -> error "shred_bag: missing attribute %s" n
             in
             match ft with
             | T.TBag inner_ty ->
               let sub_path = path @ [ n ] in
               let site = input_site base sub_path in
               incr counter;
               let label = V.Label { site; args = [ V.Int !counter ] } in
               let rows = dict_rows sub_path in
               List.iter
                 (fun inner_item ->
                   let flat = flatten_item sub_path inner_ty inner_item in
                   match flat with
                   | V.Tuple fs -> rows := V.Tuple (("label", label) :: fs) :: !rows
                   | _ ->
                     error
                       "shred_bag: inner bags must contain tuples (path %s)"
                       (String.concat "." sub_path))
                 (V.bag_items fv);
               (n, label)
             | _ -> (n, fv))
           fields)
    | _, _ ->
      error "shred_bag: element type mismatch at %s" (String.concat "." path)
  in
  let top_items =
    List.map (fun item -> flatten_item [] elem_ty item) (V.bag_items v)
  in
  let paths = dict_paths elem_ty in
  {
    top = V.Bag top_items;
    dicts =
      List.map
        (fun p -> (p, V.Bag (List.rev !(dict_rows p))))
        paths;
  }

type env = {
  datasets : (string * V.t) list; (* in input order, each top before its dicts *)
  dicts : string list; (* the dictionaries among [datasets] *)
}

(** Shred every nested input of an environment into named datasets
    ([COP_F], [COP_D_corders], ...), recording which are dictionaries; flat
    inputs pass through under their [_F] name with no dictionaries. *)
let shred_env (types : (string * T.t) list) (values : (string * V.t) list) :
    env =
  let shredded =
    List.map
      (fun (name, v) ->
        match List.assoc_opt name types with
        | Some (T.TBag elem) when not (T.is_flat elem) ->
          let s = shred_bag name elem v in
          ( (top_name name, s.top),
            List.map (fun (path, bag) -> (dict_name name path, bag)) s.dicts )
        | Some (T.TBag _) -> ((top_name name, v), [])
        | _ -> ((name, v), []))
      values
  in
  {
    datasets = List.concat_map (fun (top, dicts) -> top :: dicts) shredded;
    dicts = List.concat_map (fun (_, dicts) -> List.map fst dicts) shredded;
  }

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
            | _ -> error "unshred_bag: malformed dictionary row")
          (V.bag_items bag);
        (path, tbl))
      dicts
  in
  let lookup path label =
    match List.assoc_opt path index with
    | None -> error "unshred_bag: no dictionary at %s" (String.concat "." path)
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
               | None -> error "unshred_bag: missing attribute %s" n
             in
             match ft with
             | T.TBag inner_ty ->
               let sub_path = path @ [ n ] in
               let members = lookup sub_path fv in
               (n, V.Bag (List.map (rebuild_item sub_path inner_ty) members))
             | _ -> (n, fv))
           fields)
    | _, _ ->
      error "unshred_bag: element type mismatch at %s" (String.concat "." path)
  in
  V.Bag (List.map (rebuild_item [] elem_ty) (V.bag_items top))
