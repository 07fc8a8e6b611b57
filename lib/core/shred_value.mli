(** Value shredding and unshredding (Section 4): convert nested values to
    their shredded representation — flat top bag plus flat dictionaries —
    and back. {!place} loads every input onto the cluster's partitions,
    shredding the nested ones; {!shred_bag} and {!shred_env}, the semantic
    reference for query-shredding tests, read what it loads on one
    partition.

    Two walks shred an input, each type level's fields, bag fields,
    dictionaries and label sites resolved once, so neither derives
    anything per item: a counting walk, which allocates nothing per item,
    and the walk that flattens. Every bag, empty or not, takes the input's next
    label [Label { site; args = [Int n] }], [n] counting from 1 in
    depth-first order; its items, flattened and prefixed by the label,
    are its dictionary's rows, in that order too, and a flat item whose
    fields come in type order keeps its field list. A path's label site is
    registered ({!Shred_type.input_site}) in the order of each path's
    first label, which the counting walk finds: the order a depth-first
    walk over the values first meets the paths. *)

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
  (string * Exec.Dataset.t) list
(** [place pool ~partitions types values]: the stored datasets of every
    input, in input order, on [partitions]. A nested bag is shredded into
    datasets named by [Registry.of_inputs types] ([COP_F],
    [COP_D_corders], ...): the top bag round-robin by item, each
    dictionary row in partition [Plan.Kernel.hash_key [label] mod
    partitions] with that guarantee, in walk order within each partition,
    exactly as [Exec.Dataset.of_bag] and [of_bag_by] place the bags
    {!shred_bag} returns. Any other input is [Exec.Dataset.of_bag]
    (raising [Invalid_argument] on a value that is no bag), a flat bag
    under its top bag's name, anything else under its own.

    The top items are shredded in contiguous chunks on [pool], a few per
    lane. A counting walk per chunk gives the labels before each chunk,
    so every label and placement is that of one walk over the whole
    input, whatever the pool's size, and each path's first label, in
    whose order the sites are then registered, input by input, on the
    calling domain. The walk that flattens sizes each element as it
    builds it, and each partition's task lays the chunks' rows end to
    end, so loading sizes every element once, on the pool. Malformed
    values raise {!Unnest.Unsupported} (or [Invalid_argument] for a bag
    field holding no bag), the first in walk order, before any chunk is
    flattened. *)

val shred_env :
  (string * Nrc.Types.t) list -> (string * Nrc.Value.t) list -> (string * Nrc.Value.t) list
(** Shred every nested input of an environment into named datasets
    ([COP_F], [COP_D_corders], ...), in input order, each top bag before
    its dictionaries, as {!place} loads them on one partition; flat bags
    pass through under their top bag's name, inputs of any other type
    unchanged. *)

val unshred_bag :
  Nrc.Types.t ->
  Nrc.Value.t ->
  (string list * Nrc.Value.t) list ->
  Nrc.Value.t
(** Rebuild the nested bag; inverse of {!shred_bag} up to label identity. *)
