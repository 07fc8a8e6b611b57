(** The shredded compilation pipeline (Section 4): symbolic shredding,
    materialization with domain elimination, and optional unshredding, for
    whole NRC programs. The result is an ordinary flat NRC program over
    shredded datasets — ready for the same unnesting / code generation /
    execution stages as the standard route. *)

module E = Nrc.Expr
module T = Nrc.Types

type origin = {
  step : string; (* the source assignment it was materialized for *)
  dict : bool; (* a dictionary: label column + item columns *)
}

type t = {
  mat : Nrc.Program.t;
      (** materialized program: inputs are the shredded datasets, one
          assignment per top bag / dictionary / label domain *)
  origins : (string * origin) list; (* per assignment of [mat], in order *)
  top : string; (* dataset holding the result's top bag *)
  unshred_query : E.t option; (* None when the output is flat *)
}

(** Shred and materialize a whole program. *)
let shred_program ?(config = Materialize.default) (p : Nrc.Program.t) : t =
  let registry = Registry.of_inputs p.Nrc.Program.inputs in
  let inputs =
    List.concat_map (fun (n, ty) -> Registry.datasets registry n ty) p.Nrc.Program.inputs
  in
  let type_env = Nrc.Program.typecheck p in
  let _, assignments_rev, last =
    List.fold_left
      (fun (dtenv, acc, _last) { Nrc.Program.target; body } ->
        let shredded = Symbolic.shred_expr ~registry ~dtenv body in
        let mat = Materialize.materialize ~config ~registry ~target shredded in
        (* this assignment's type: a target may be assigned again *)
        let ty = Nrc.Typecheck.infer (Nrc.Typecheck.env_of_list dtenv) body in
        let origin (name, e) =
          let dict = List.exists (fun (_, d) -> d = name) mat.Materialize.dicts in
          ((name, e), (name, { step = target; dict }))
        in
        ( (target, ty) :: List.remove_assoc target dtenv,
          List.rev_append (List.map origin mat.Materialize.assignments) acc,
          Some (target, mat) ))
      (p.Nrc.Program.inputs, [], None)
      p.Nrc.Program.assignments
  in
  let result, last_mat =
    match last with
    | Some (t, m) -> (t, m)
    | None -> invalid_arg "shred_program: empty program"
  in
  let output_ty = Nrc.Typecheck.Env.find result type_env in
  let unshred_query =
    match output_ty with
    | T.TBag elem when not (T.is_flat elem) ->
      Some (Unshred.query ~registry ~dataset:result elem)
    | _ -> None
  in
  let assignments, origins = List.split (List.rev assignments_rev) in
  {
    mat = Nrc.Program.make ~inputs assignments;
    origins;
    top = last_mat.Materialize.top;
    unshred_query;
  }

(** Reference evaluation of the shredded route (single-node, NRC
    interpreter): shred the input values, run the materialized program, and
    unshred the result. The oracle for the distributed shredded execution. *)
let eval_shredded ?config (p : Nrc.Program.t)
    (input_values : (string * Nrc.Value.t) list) :
    t * Nrc.Eval.env * Nrc.Value.t =
  let sp = shred_program ?config p in
  let shredded = Shred_value.shred_env p.Nrc.Program.inputs input_values in
  let env = Nrc.Program.eval sp.mat shredded in
  let result_value =
    match sp.unshred_query with
    | Some q -> Nrc.Eval.eval env q
    | None -> (
      match Nrc.Eval.Env.find_opt sp.top env with
      | Some v -> v
      | None -> invalid_arg "eval_shredded: missing top bag")
  in
  (sp, env, result_value)
