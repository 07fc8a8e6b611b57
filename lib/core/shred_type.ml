(** Shredded types and naming conventions (Section 4).

    The shredded representation of a nested bag of type [T] is a flat bag of
    type [T^F] — bag-valued attributes replaced by labels — together with a
    dictionary per nesting level associating labels with flat bags. We store
    each materialized dictionary as a flat dataset of tuples
    [<label, f1, ..., fk>] ("a Dataset[T] where T contains a label column",
    Section 4), naming them by attribute path:

    {v
      COP  ~~>  COP_F, COP_D_corders, COP_D_corders_oparts
    v} *)

module T = Nrc.Types

exception Shred_error of string

let error fmt = Fmt.kstr (fun s -> raise (Shred_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Naming *)

let top_name base = base ^ "_F"

let dict_name base path =
  String.concat "_" ((base ^ "_D") :: path)

let is_dict_name name =
  let n = String.length name in
  let rec has_marker i =
    i + 3 <= n && (String.sub name i 3 = "_D_" || has_marker (i + 1))
  in
  n > 3 && has_marker 0

let domain_name base path =
  String.concat "_" ((base ^ "_Dom") :: path)

(* ------------------------------------------------------------------ *)
(* Label sites: unique identifiers for label creation points. Sites created
   for input levels and for tuple constructors share one global namespace so
   labels from different origins can never collide. *)

let site_counter = ref 0

let fresh_site () : int =
  incr site_counter;
  !site_counter

(* one site per (dataset, path) for input value shredding, memoized so that
   re-shredding the same input reuses label identity *)
let input_sites : (string, int) Hashtbl.t = Hashtbl.create 64

let input_site base path =
  let key = dict_name base path in
  match Hashtbl.find_opt input_sites key with
  | Some s -> s
  | None ->
    let s = fresh_site () in
    Hashtbl.replace input_sites key s;
    s

(* label identities feed hash partitioning, so repeated compiles in one
   process would otherwise place dictionary rows differently run to run *)
let reset_sites () =
  site_counter := 0;
  Hashtbl.reset input_sites

(* ------------------------------------------------------------------ *)
(* T^F *)

(** Flat version of a type: bag-valued tuple attributes become labels. *)
let rec flat_of (ty : T.t) : T.t =
  match ty with
  | T.TScalar _ | T.TLabel -> ty
  | T.TTuple fields ->
    T.TTuple
      (List.map
         (fun (n, t) ->
           match t with
           | T.TBag _ -> (n, T.TLabel)
           | _ -> (n, flat_of t))
         fields)
  | T.TBag t -> T.TBag (flat_of t)
  | T.TDict _ -> error "flat_of: unexpected dictionary type"

(** Element type at a path of bag-valued attributes: [elem_at cop_elem
    ["corders"; "oparts"]] is the oparts item type. *)
let rec elem_at (elem_ty : T.t) (path : string list) : T.t =
  match path with
  | [] -> elem_ty
  | a :: rest -> (
    match elem_ty with
    | T.TTuple fields -> (
      match List.assoc_opt a fields with
      | Some (T.TBag inner) -> elem_at inner rest
      | Some t -> error "elem_at: attribute %s is not a bag (%a)" a T.pp t
      | None -> error "elem_at: no attribute %s" a)
    | _ -> error "elem_at: not a tuple type")

(** Bag-valued attributes of a tuple element type. *)
let bag_attrs (elem_ty : T.t) : (string * T.t) list =
  match elem_ty with
  | T.TTuple fields ->
    List.filter_map
      (fun (n, t) -> match t with T.TBag inner -> Some (n, inner) | _ -> None)
      fields
  | _ -> []

(** All dictionary paths of a nested bag element type, in pre-order:
    [["corders"]; ["corders"; "oparts"]]. *)
let rec dict_paths (elem_ty : T.t) : string list list =
  List.concat_map
    (fun (a, inner) ->
      [ a ] :: List.map (fun p -> a :: p) (dict_paths inner))
    (bag_attrs elem_ty)

(** The dataset type of a materialized dictionary whose items have the given
    (original, possibly nested) element type: a flat bag of label + flat item
    fields. Only tuple items are supported in the shredded route. *)
let dict_dataset_ty (item_ty : T.t) : T.t =
  match flat_of item_ty with
  | T.TTuple fields -> T.TBag (T.TTuple (("label", T.TLabel) :: fields))
  | t ->
    error
      "shredded dictionaries require tuple-valued inner bags, got items of \
       type %a"
      T.pp t

(** Shredded input signature of a dataset: the names and types of its top
    bag and dictionaries. *)
let shredded_inputs (base : string) (ty : T.t) : (string * T.t) list =
  match ty with
  | T.TBag elem ->
    (top_name base, T.TBag (flat_of elem))
    :: List.map
         (fun path -> (dict_name base path, dict_dataset_ty (elem_at elem path)))
         (dict_paths elem)
  | _ -> error "shredded_inputs: %s is not a bag" base
