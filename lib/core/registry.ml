(** The one owner of shredded dataset names: each {!Shred_type.id} is named
    once, on first request or anew when an assignment makes it again, by
    its rendering if free, else by the rendering plus the least free [_k]
    suffix. Output levels that reuse an input dictionary unchanged are
    aliases (Section 4: "The first two output levels are those from the
    shredded input"). *)

module T = Nrc.Types

type t = {
  names : (Shred_type.id, string) Hashtbl.t;
  taken : (string, unit) Hashtbl.t;
}

let fresh t id =
  let base = Shred_type.render id in
  let rec free k =
    let n = Printf.sprintf "%s_%d" base k in
    if Hashtbl.mem t.taken n then free (k + 1) else n
  in
  let n = if Hashtbl.mem t.taken base then free 1 else base in
  Hashtbl.replace t.names id n;
  Hashtbl.replace t.taken n ();
  n

let name t id =
  match Hashtbl.find_opt t.names id with Some n -> n | None -> fresh t id

let alias t id n = Hashtbl.replace t.names id n

(* a bag's top bag, then its dictionaries in pre-order; anything else is
   itself *)
let datasets t base (ty : T.t) : (string * T.t) list =
  match ty with
  | T.TBag elem ->
    (name t (Top base), T.TBag (Shred_type.flat_of elem))
    :: List.map
         (fun path ->
           ( name t (Dict (base, path)),
             Shred_type.dict_dataset_ty (Shred_type.elem_at elem path) ))
         (Shred_type.dict_paths elem)
  | _ -> [ (base, ty) ]

let of_inputs (types : (string * T.t) list) =
  let t = { names = Hashtbl.create 32; taken = Hashtbl.create 32 } in
  List.iter
    (fun (n, ty) -> match ty with T.TBag _ -> () | _ -> Hashtbl.replace t.taken n ())
    types;
  List.iter (fun (n, ty) -> ignore (datasets t n ty)) types;
  t
