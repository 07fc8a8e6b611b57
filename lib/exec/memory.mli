(** Per-worker memory manager: arbitrates each stage's byte budget and
    decides between running in memory, spilling the stage's build side to
    simulated disk, or denying the reservation (typed OOM).

    Reservation protocol. Before materialising a stage, the executor asks
    {!reserve} with two per-worker byte vectors: [worker], the full
    residency the stage needs on each worker (inputs + outputs + any
    {!pin}ned broadcast replicas), and [spillable], the portion of that
    residency the operator can stage through disk — its "build side" (hash
    table for joins and group-bys, the broadcast replica for broadcast
    joins, everything for streaming operators and shuffle receipts). The
    manager answers per stage:

    - [Fit]: every worker fits the (possibly {!Faults.Mem_squeeze}d)
      budget; nothing to charge.
    - [Spill] (only under {!Config.t.spill} [= On]): each over-budget
      worker partitions its build side into [k] grace-hash partitions
      sized to the headroom left by its unspillable residue (falling back
      to full external streaming when even the residue is over budget) and
      runs [k] build passes. The decision carries the bytes written, the
      partition count, the worst per-worker round count, the post-spill
      peak residency, and the disk time (write + read back at
      {!Config.t.disk_weight}, slowest worker wins); the executor charges
      all of it as one {!Trace.charge}.
    - [Denied]: over budget with spilling off, or a spill that would need
      more than {!Config.t.max_spill_rounds} passes. The executor fails
      with {!Failure.Out_of_memory}, which the driver may answer by
      re-planning down the shredded route ({!Trance.Api}).

    Spilling is cost-model only: operator results are byte-identical to
    the in-memory path, so answers never change — only the simulated clock
    and the spill counters do. *)

type t

(** Answer to one stage's reservation. *)
type decision =
  | Fit of { peak : int }  (** fits; [peak] = max per-worker residency *)
  | Spill of {
      spilled_bytes : int;  (** written to disk across all workers *)
      spill_partitions : int;  (** grace-hash partitions created *)
      rounds : int;  (** worst per-worker build-pass count *)
      peak : int;  (** post-spill peak residency (≤ budget) *)
      io_seconds : float;  (** simulated disk time (slowest worker) *)
    }
  | Denied of { worker_bytes : int; budget : int }
      (** the typed-OOM verdict: offending residency and the budget it
          exceeded *)

val create : ?faults:Faults.t -> Config.t -> t
(** One manager per plan run; consults the fault injector on every
    {!reserve} so a mid-run [Mem_squeeze] shrinks later stages' budgets. *)

val pin : t -> int -> unit
(** Declare broadcast bytes resident on {e every} worker until {!unpin};
    they count toward each subsequent reservation. *)

val unpin : t -> int -> unit

val pinned : t -> int
(** Currently pinned broadcast bytes. *)

val budget : t -> int
(** The current per-worker budget ({!Config.t.worker_mem} after any active
    squeeze). *)

val reserve : t -> worker:int array -> spillable:int array -> decision
(** [reserve t ~worker ~spillable]: decide one stage. [worker.(w)] is the
    full residency worker [w] needs; [spillable.(w)] (≤ [worker.(w)]) is
    what the operator can stage through disk. *)
