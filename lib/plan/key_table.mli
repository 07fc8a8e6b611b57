(** One open-addressed table from key hashes to positions — of rows in an
    array, or of groups in a store — behind every keyed kernel: the nest
    kernels' group tables, the join and cogroup index, dedup, and the skew
    sampler's heavy-key sets.

    The table holds no keys: it maps a key's hash ({!Kernel.hash_key}'s
    fold) to the position of a key entered with it, and a probe compares
    the probed key with the one at a candidate position in place, through
    the [equal] the caller passes. A slot is two [int]s, the hash and the
    position, in one flat array, doubled when half full. *)

type t

val create : unit -> t
(** An empty table. *)

val length : t -> int
(** The keys entered. *)

val reset : t -> keys:int -> unit
(** Empty [t] for a use entering at most about [keys] keys, in time
    proportional to [keys]: its slots are cleared in place, or, when they
    are far more than [keys] keys need, replaced by a new table's. *)

val find : t -> int -> (int -> bool) -> int
(** [find t hash equal]: the position [p] entered with [hash] for which
    [equal p] holds, or [-1]. *)

val find_or_add : t -> int -> (int -> bool) -> int -> int
(** [find_or_add t hash equal p]: as {!find}; when no position matches,
    enters [p] under [hash] and returns [-1]. *)

val push : t -> int -> (int -> bool) -> int -> int
(** [push t hash equal p]: [p] now stands for its key; returns the
    position that stood for it before, or [-1] when the key is new. *)
