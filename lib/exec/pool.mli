(** A reusable domain pool for partition-wise execution.

    The executor's hot loops are embarrassingly parallel: every operator
    maps a pure function over the partitions of an {!Executor.rset}. The
    pool runs those maps on [domains] OCaml 5 domains (including the
    calling one), spawned once per run and reused by every stage — the
    real-hardware counterpart of the cluster the simulator models.

    Determinism contract: tasks must be pure with respect to shared state
    (no [Stats]/[Trace]/[Memory]/[Faults] calls inside a task — whatever
    the caller accounts is part of the task's result). Results are stored
    in per-index slots, so for any [domains] the outcome — results, and
    the exception raised, if any — is bit-identical to the sequential
    run; a caller that sums per-task quantities does so in task-index
    order after the barrier. [sim_seconds] therefore never depends on
    [domains]; only wall-clock time does.

    A pool with [domains = 1] spawns no domains at all and degenerates to
    the sequential [Array.mapi]. [map] must not be called from inside a
    task of the same pool (the executor never nests: tasks are leaf
    computations). *)

type t

val create : domains:int -> t
(** Spawn a pool of [max 1 domains] lanes ([domains - 1] domains plus the
    caller). The domains idle on a condition variable between jobs.
    @raise Failure naming the lane count when the runtime cannot start
    that many domains; the domains already spawned are joined first. *)

val size : t -> int
(** Number of lanes, including the calling domain. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; the pool must not be
    used afterwards. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] — even if the callback raises. *)

val map : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is a parallel, order-preserving [Array.mapi f arr]:
    [f i arr.(i)] runs for every index and its result lands in slot [i].
    If tasks raise, the exception of the {e lowest} raising index is
    re-raised with its backtrace after the barrier — exactly the one the
    sequential loop would have surfaced. *)
