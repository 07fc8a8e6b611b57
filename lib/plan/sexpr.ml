(** Scalar expressions evaluated per row inside plan operators (selections,
    projections, join keys, nest keys and aggregands).

    Null semantics mirror the paper's outer operators: projecting a field of
    a Null tuple yields Null; any primitive or comparison with a Null operand
    yields Null, which selections treat as false and {!Op.NestSum} casts
    to 0. *)

type t =
  | Col of string list (* column name followed by tuple-field path *)
  | Const of Nrc.Value.t
  | Prim of Nrc.Expr.prim * t * t
  | Cmp of Nrc.Expr.cmp * t * t
  | Logic of Nrc.Expr.logic * t * t
  | Not of t
  | IsNull of t
  | MkLabel of { site : int; args : t list }
  | LabelArg of t * int (* extract i-th captured value of a label *)
  | IsLabelSite of t * int (* true iff the label was created by this site *)
  | MkTuple of (string * t) list (* build a tuple value (for nested columns) *)

let col c = Col [ c ]
let path c fields = Col (c :: fields)

(* [e] over rows of the schema [names]: each column is resolved to its slot
   here, once, so the closure reads values by position *)
let rec specialize names (e : t) : Nrc.Value.t array -> Nrc.Value.t =
  let spec = specialize names in
  match e with
  | Col [] -> invalid_arg "Sexpr.compile: empty path"
  | Col (c :: fields) -> (
    match Row.slot names c, fields with
    | None, _ -> invalid_arg (Printf.sprintf "Sexpr.compile: no column %S" c)
    | Some i, [] -> fun vals -> vals.(i)
    (* [Value.field] passes Null through *)
    | Some i, _ -> fun vals -> List.fold_left Nrc.Value.field vals.(i) fields)
  | Const v -> fun _ -> v
  | Prim (op, a, b) ->
    let a = spec a and b = spec b in
    fun vals -> (
      match a vals, b vals with
      | Nrc.Value.Null, _ | _, Nrc.Value.Null -> Nrc.Value.Null
      | va, vb -> Nrc.Eval.eval_prim op va vb)
  | Cmp (op, a, b) ->
    let a = spec a and b = spec b in
    fun vals -> (
      match a vals, b vals with
      | Nrc.Value.Null, _ | _, Nrc.Value.Null -> Nrc.Value.Null
      | va, vb -> Nrc.Eval.eval_cmp op va vb)
  | Logic (op, a, b) ->
    let a = spec a and b = spec b in
    fun vals -> (
      match a vals, b vals with
      | Nrc.Value.Null, _ | _, Nrc.Value.Null -> Nrc.Value.Null
      | Nrc.Value.Bool x, Nrc.Value.Bool y ->
        Nrc.Value.of_bool (match op with Nrc.Expr.And -> x && y | Nrc.Expr.Or -> x || y)
      | _ -> invalid_arg "Sexpr.compile: logic on non-boolean")
  | Not a ->
    let a = spec a in
    fun vals -> (
      match a vals with
      | Nrc.Value.Null -> Nrc.Value.Null
      | Nrc.Value.Bool b -> Nrc.Value.of_bool (not b)
      | _ -> invalid_arg "Sexpr.compile: not on non-boolean")
  | IsNull a ->
    let a = spec a in
    fun vals -> Nrc.Value.of_bool (Nrc.Value.is_null (a vals))
  | MkLabel { site; args } ->
    let args = List.map spec args in
    fun vals -> Nrc.Value.Label { site; args = List.map (fun a -> a vals) args }
  | LabelArg (a, i) -> (
    let a = spec a in
    fun vals ->
      match a vals with
      | Nrc.Value.Null -> Nrc.Value.Null
      | Nrc.Value.Label { args; _ } -> (
        (* out-of-bounds yields Null: rows from a foreign-site label are
           filtered by the accompanying IsLabelSite guard *)
        match List.nth_opt args i with Some v -> v | None -> Nrc.Value.Null)
      | v ->
        invalid_arg
          (Printf.sprintf "Sexpr.compile: LabelArg on non-label %s"
             (Nrc.Value.to_string v)))
  | IsLabelSite (a, site) -> (
    let a = spec a in
    fun vals ->
      match a vals with
      | Nrc.Value.Null -> Nrc.Value.Null
      | Nrc.Value.Label { site = s; _ } -> Nrc.Value.of_bool (s = site)
      | _ -> Nrc.Value.of_bool false)
  | MkTuple fields ->
    let fields = List.map (fun (n, x) -> (n, spec x)) fields in
    fun vals -> Nrc.Value.Tuple (List.map (fun (n, x) -> (n, x vals)) fields)

let compile e =
  let spec = Row.by_schema (fun names -> specialize names e) in
  fun (row : Row.t) -> spec row row.vals

type reader = Nrc.Value.t array -> Nrc.Value.t

let compile_vec es =
  let es = Array.of_list es in
  Row.by_schema (fun names -> Array.map (specialize names) es)

(** Truthiness for selections: Null counts as false (outer-join semantics). *)
let compile_pred e =
  let f = compile e in
  fun row ->
    match f row with
    | Nrc.Value.Bool b -> b
    | Nrc.Value.Null -> false
    | v ->
      invalid_arg
        (Printf.sprintf "Sexpr.compile_pred: non-boolean %s" (Nrc.Value.to_string v))

(** (column, field path) of every column reference (for pushdown
    analyses). *)
let rec uses (e : t) : (string * string list) list =
  match e with
  | Col (c :: rest) -> [ (c, rest) ]
  | Col [] -> []
  | Const _ -> []
  | Prim (_, a, b) | Cmp (_, a, b) | Logic (_, a, b) -> uses a @ uses b
  | Not a | IsNull a | LabelArg (a, _) | IsLabelSite (a, _) -> uses a
  | MkLabel { args; _ } -> List.concat_map uses args
  | MkTuple fields -> List.concat_map (fun (_, x) -> uses x) fields

let cols_used e = List.map fst (uses e)

let conj = function
  | [] -> Const (Nrc.Value.Bool true)
  | c :: cs -> List.fold_left (fun a b -> Logic (Nrc.Expr.And, a, b)) c cs

let rec conjuncts = function
  | Logic (Nrc.Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let reads_only cols exprs =
  List.for_all (fun e -> List.for_all (fun c -> List.mem c cols) (cols_used e)) exprs

let rec pp ppf = function
  | Col p -> Fmt.string ppf (String.concat "." p)
  | Const v -> Nrc.Value.pp ppf v
  | Prim (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp a (Nrc.Expr.prim_to_string op) pp b
  | Cmp (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp a (Nrc.Expr.cmp_to_string op) pp b
  | Logic (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp a (Nrc.Expr.logic_to_string op) pp b
  | Not a -> Fmt.pf ppf "\u{00AC}%a" pp a
  | IsNull a -> Fmt.pf ppf "isnull(%a)" pp a
  | MkLabel { site; args } ->
    Fmt.pf ppf "NewLabel_%d(%a)" site (Fmt.list ~sep:Fmt.comma pp) args
  | LabelArg (a, i) -> Fmt.pf ppf "%a#%d" pp a i
  | IsLabelSite (a, site) -> Fmt.pf ppf "site(%a)==%d" pp a site
  | MkTuple fields ->
    Fmt.pf ppf "\u{27E8}%a\u{27E9}"
      (Fmt.list ~sep:Fmt.comma (fun ppf (n, x) -> Fmt.pf ppf "%s:%a" n pp x))
      fields
