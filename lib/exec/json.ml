(** JSON values and their one printer; see json.mli. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_seq b first last add_item items =
  Buffer.add_char b first;
  List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; add_item x) items;
  Buffer.add_char b last

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f when Float.is_finite f -> Printf.bprintf b "%.6g" f
  | Float _ -> Buffer.add_string b "null"
  | String s -> add_string b s
  | List xs -> add_seq b '[' ']' (add b) xs
  | Obj fields ->
    add_seq b '{' '}' (fun (k, v) -> add_string b k; Buffer.add_char b ':'; add b v) fields

let to_string v =
  let b = Buffer.create 4096 in
  add b v;
  Buffer.contents b
