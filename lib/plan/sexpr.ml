(** Scalar expressions evaluated per row inside plan operators (selections,
    projections, join keys, nest keys and aggregands). Each compiles over
    a schema, which resolves every column to its slot once.

    Null semantics mirror the paper's outer operators: projecting a field of
    a Null tuple yields Null; any primitive, comparison or conditional with
    a Null operand (or condition) yields Null, which selections treat as
    false and {!Op.NestSum} casts to 0. *)

type t =
  | Col of string list (* column name followed by tuple-field path *)
  | Const of Nrc.Value.t
  | Prim of Nrc.Expr.prim * t * t
  | Cmp of Nrc.Expr.cmp * t * t
  | Logic of Nrc.Expr.logic * t * t
  | Not of t
  | IsNull of t
  | If of t * t * t
  | MkLabel of { site : int; args : t list }
  | LabelArg of t * int (* extract i-th captured value of a label *)
  | IsLabelSite of t * int (* true iff the label was created by this site *)
  | MkTuple of (string * t) list (* build a tuple value (for nested columns) *)

let col c = Col [ c ]
let path c fields = Col (c :: fields)

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
  | If (c, a, b) -> Fmt.pf ppf "(if %a then %a else %a)" pp c pp a pp b
  | MkLabel { site; args } ->
    Fmt.pf ppf "NewLabel_%d(%a)" site (Fmt.list ~sep:Fmt.comma pp) args
  | LabelArg (a, i) -> Fmt.pf ppf "%a#%d" pp a i
  | IsLabelSite (a, site) -> Fmt.pf ppf "site(%a)==%d" pp a site
  | MkTuple fields ->
    Fmt.pf ppf "\u{27E8}%a\u{27E9}"
      (Fmt.list ~sep:Fmt.comma (fun ppf (n, x) -> Fmt.pf ppf "%s:%a" n pp x))
      fields

(* the first pair named [n] in [vfields], as [Value.field] finds it *)
let rec find_pair n = function
  | ((m, _) as pair) :: _ when String.equal m n -> pair
  | _ :: more -> find_pair n more
  | [] -> invalid_arg (Printf.sprintf "Value.field: no attribute %S in tuple" n)

(* the pairs of [names] in [vfields], in order *)
let rec pairs names vfields =
  match names with
  | [] -> []
  | n :: rest ->
    let pair = find_pair n vfields in
    pair :: pairs rest vfields

(* [e] over environments whose columns [column] resolves — here, once —
   to their readers *)
let rec specialize (column : string -> ('a -> Nrc.Value.t) option) (e : t) :
    'a -> Nrc.Value.t =
  let spec = specialize column in
  match e with
  | Col [] -> invalid_arg "Sexpr.compile: empty path"
  | Col (c :: fields) -> (
    match column c, fields with
    | None, _ -> invalid_arg (Printf.sprintf "Sexpr.compile: no column %S" c)
    | Some read, [] -> read
    (* [Value.field] passes Null through *)
    | Some read, [ f ] -> fun env -> Nrc.Value.field (read env) f
    | Some read, _ -> fun env -> List.fold_left Nrc.Value.field (read env) fields)
  | Const v -> fun _ -> v
  | Prim (op, a, b) ->
    let a = spec a and b = spec b in
    fun env -> (
      match a env, b env with
      | Nrc.Value.Null, _ | _, Nrc.Value.Null -> Nrc.Value.Null
      | va, vb -> (
        match Nrc.Eval.eval_prim op va vb with
        | v -> v
        | exception Division_by_zero ->
          raise (Nrc.Eval.Eval_error (Fmt.str "division by zero: %a" pp e))))
  | Cmp (op, a, b) ->
    let a = spec a and b = spec b in
    fun env -> (
      match a env, b env with
      | Nrc.Value.Null, _ | _, Nrc.Value.Null -> Nrc.Value.Null
      | va, vb -> Nrc.Eval.eval_cmp op va vb)
  | Logic (op, a, b) ->
    let a = spec a and b = spec b in
    fun env -> (
      match a env, b env with
      | Nrc.Value.Null, _ | _, Nrc.Value.Null -> Nrc.Value.Null
      | Nrc.Value.Bool x, Nrc.Value.Bool y ->
        Nrc.Value.of_bool (match op with Nrc.Expr.And -> x && y | Nrc.Expr.Or -> x || y)
      | _ -> invalid_arg "Sexpr.compile: logic on non-boolean")
  | Not a ->
    let a = spec a in
    fun env -> (
      match a env with
      | Nrc.Value.Null -> Nrc.Value.Null
      | Nrc.Value.Bool b -> Nrc.Value.of_bool (not b)
      | _ -> invalid_arg "Sexpr.compile: not on non-boolean")
  | IsNull a ->
    let a = spec a in
    fun env -> Nrc.Value.of_bool (Nrc.Value.is_null (a env))
  | If (c, a, b) ->
    let c = spec c and a = spec a and b = spec b in
    fun env -> (
      match c env with
      | Nrc.Value.Null -> Nrc.Value.Null
      | Nrc.Value.Bool true -> a env
      | Nrc.Value.Bool false -> b env
      | _ -> invalid_arg "Sexpr.compile: if on non-boolean")
  | MkLabel { site; args } ->
    let args = List.map spec args in
    fun env -> Nrc.Value.label ~site (List.map (fun a -> a env) args)
  | LabelArg (a, i) -> (
    let a = spec a in
    fun env ->
      match a env with
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
    fun env ->
      match a env with
      | Nrc.Value.Null -> Nrc.Value.Null
      | Nrc.Value.Label { site = s; _ } -> Nrc.Value.of_bool (s = site)
      | _ -> Nrc.Value.of_bool false)
  | MkTuple ((_, Col [ c; _ ]) :: _ as fields) when narrows c fields -> (
    (* a narrowing of the tuple in [c] keeps that tuple's fields *)
    let whole = tuple (List.map (fun (n, x) -> (n, spec x)) fields) and read = spec (Col [ c ]) in
    let names = List.map fst fields in
    fun env ->
      match read env with Nrc.Value.Tuple vfields -> Nrc.Value.Tuple (pairs names vfields) | _ -> whole env)
  | MkTuple fields -> tuple (List.map (fun (n, x) -> (n, spec x)) fields)

and tuple fields env = Nrc.Value.Tuple (List.map (fun (n, x) -> (n, x env)) fields)

(* every field is [n := c.n] *)
and narrows c =
  List.for_all (function n, Col [ c'; f ] -> String.equal c c' && String.equal n f | _ -> false)


type reader = Row.t -> Nrc.Value.t

(* a column of one row, by its slot in [names] *)
let in_row names c = Option.map (fun i (row : Row.t) -> row.(i)) (Row.slot names c)

let compile names e : reader = specialize (in_row names) e
let compile_vec names es = Array.of_list (List.map (compile names) es)

(* Truthiness for selections: Null counts as false (outer-join semantics). *)
let truth = function
  | Nrc.Value.Bool b -> b
  | Nrc.Value.Null -> false
  | v ->
    invalid_arg
      (Printf.sprintf "Sexpr.compile_pred: non-boolean %s" (Nrc.Value.to_string v))

let compile_pred names e =
  let f = compile names e in
  fun row -> truth (f row)

type pair = { mutable left : Row.t; mutable right : Row.t }

let pair () = { left = Row.empty; right = Row.empty }

(* a column of the joined row: the left side's first, as in the schema
   [lnames] followed by [rnames] *)
let compile_pair lnames rnames e =
  specialize
    (fun c ->
      match Row.slot lnames c, Row.slot rnames c with
      | Some i, _ -> Some (fun p -> p.left.(i))
      | None, Some i -> Some (fun p -> p.right.(i))
      | None, None -> None)
    e

(** (column, field path) of every column reference (for pushdown
    analyses). *)
let rec uses (e : t) : (string * string list) list =
  match e with
  | Col (c :: rest) -> [ (c, rest) ]
  | Col [] -> []
  | Const _ -> []
  | Prim (_, a, b) | Cmp (_, a, b) | Logic (_, a, b) -> uses a @ uses b
  | Not a | IsNull a | LabelArg (a, _) | IsLabelSite (a, _) -> uses a
  | If (c, a, b) -> uses c @ uses a @ uses b
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
