(** Registry of materialized dictionary names.

    Maps (dataset, attribute path) to the concrete dataset holding that
    dictionary. By default a dictionary lives under its canonical name
    [<dataset>_D_<path>]; the materializer records aliases when an output
    level reuses an input dictionary unchanged (Section 4: "The first two
    output levels are those from the shredded input"). *)

type t = { aliases : (string, string) Hashtbl.t }

let create () = { aliases = Hashtbl.create 32 }

let key dataset path = String.concat "\x00" (dataset :: path)

(** The dataset name holding the dictionary of [dataset] at [path]. *)
let resolve (t : t) dataset path =
  match Hashtbl.find_opt t.aliases (key dataset path) with
  | Some name -> name
  | None -> Shred_type.dict_name dataset path

(** Record that the dictionary of [dataset] at [path] is stored in
    [target_name] (an alias or a freshly materialized dataset). *)
let record (t : t) dataset path target_name =
  Hashtbl.replace t.aliases (key dataset path) target_name
