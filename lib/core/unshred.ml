(** Unshredding: reconstruct a nested result from its materialized shredded
    form. The reconstruction is itself expressed as an NRC query over the
    top bag and the flat dictionaries (per-label lookups, which the
    unnesting stage turns into label joins and regrouping), so its cost can
    be measured on the same execution substrate as everything else — this is
    the Unshred series of the paper's experiments. *)

module E = Nrc.Expr
module T = Nrc.Types

(** Build the NRC query reconstructing a nested bag of (original) element
    type [elem_ty] from the shredded datasets of [dataset], resolving
    dictionary names through the registry (so aliased levels read the input
    dictionaries directly). *)
let query ~registry ~dataset (elem_ty : T.t) : E.t =
  let rec rebuild_fields path (var : string) (ty : T.t) : E.t =
    match ty with
    | T.TTuple fields ->
      E.Record
        (List.map
           (fun (n, ft) ->
             match ft with
             | T.TBag inner ->
               let sub_path = path @ [ n ] in
               let dict = Registry.name registry (Dict (dataset, sub_path)) in
               let z = E.fresh ~hint:"u" () in
               ( n,
                 E.ForUnion
                   ( z,
                     E.Var dict,
                     E.If
                       ( E.Cmp (E.Eq, E.Proj (E.Var z, "label"), E.Proj (E.Var var, n)),
                         E.Singleton (rebuild_fields sub_path z inner),
                         None ) ) )
             | _ -> (n, E.Proj (E.Var var, n)))
           fields)
    | _ -> Unnest.unsupported "unshredding requires tuple-valued bag elements"
  in
  let x = E.fresh ~hint:"u" () in
  E.ForUnion
    ( x,
      E.Var (Registry.name registry (Top dataset)),
      E.Singleton (rebuild_fields [] x elem_ty) )
