(** Value shredding and unshredding (Section 4): convert nested values to
    their shredded representation — flat top bag plus flat dictionaries —
    and back. {!place} loads the inputs of the shredded route straight
    onto the cluster's partitions; {!shred_bag} and {!shred_env}, the
    semantic reference for query-shredding tests, run the same walk on one
    partition.

    One walk shreds an input: each type level's fields, bag fields,
    dictionaries and label sites are resolved once, so the walk derives
    nothing per item, and a flat item whose fields come in type order
    keeps its field list. Every bag, empty or not, takes the input's next
    label [Label { site; args = [Int n] }], [n] counting from 1 in
    depth-first order; its items, flattened and prefixed by the label,
    are its dictionary's rows, in that order too. A path's label site is
    registered ({!Shred_type.input_site}) when the walk first meets it, at
    the first tuple of its parent level. *)

type shredded = {
  top : Nrc.Value.t;  (** flat bag with labels in bag positions *)
  dicts : (string list * Nrc.Value.t) list;
      (** path -> flat dictionary bag (label + item fields) *)
}

val shred_bag : string -> Nrc.Types.t -> Nrc.Value.t -> shredded
(** [shred_bag base elem_ty v]: shred one nested bag, drawing label sites
    from {!Shred_type.input_site}[ base]. *)

val place :
  Exec.Pool.t ->
  partitions:int ->
  (string * Nrc.Types.t) list ->
  (string * Nrc.Value.t) list ->
  (string * Nrc.Value.t * (string * Exec.Dataset.t) list option) list
(** [place pool ~partitions types values]: every input in order, and for
    each nested bag its shredded stored datasets on [partitions], named by
    [Registry.of_inputs types] ([COP_F], [COP_D_corders], ...) — the top
    bag round-robin by item, each dictionary row in partition
    [Plan.Kernel.hash_key [label] mod partitions] with that guarantee, in
    walk order within each partition, exactly as [Exec.Dataset.of_bag]
    and [of_bag_by] place the bags {!shred_bag} returns. The gather task
    of each partition builds its ["item"] rows and their sizes, so loading
    sizes every element once, on the pool. Label sites are registered for all
    inputs, in input order, first, on the calling domain. The top items
    are then shredded in contiguous chunks on [pool], a few per lane: a
    counting walk per chunk, which allocates nothing, gives each chunk the
    number of labels before it, so every label and placement is that of
    one walk over the whole input, whatever the pool's size. Any other
    input comes back with [None], under the name of its dataset: a flat
    bag under its top bag's, anything else under its own. Malformed values
    raise {!Unnest.Unsupported} (or [Invalid_argument] for a bag field
    holding no bag), the first in walk order, before any chunk is
    shredded. *)

val shred_env :
  (string * Nrc.Types.t) list -> (string * Nrc.Value.t) list -> (string * Nrc.Value.t) list
(** Shred every nested input of an environment into named datasets
    ([COP_F], [COP_D_corders], ...), in input order, each top bag before
    its dictionaries; flat bags pass through under their top bag's name,
    non-bag inputs unchanged. *)

val unshred_bag :
  Nrc.Types.t ->
  Nrc.Value.t ->
  (string list * Nrc.Value.t) list ->
  Nrc.Value.t
(** Rebuild the nested bag; inverse of {!shred_bag} up to label identity. *)
